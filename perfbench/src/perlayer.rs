//! The per-layer metric set of the traced run. Every workload reports
//! every metric; a layer the workload never enters, and a figure that
//! could not be measured, reads 0.

use crate::util::Metric;
use std::collections::BTreeMap;

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("pipeline.control.ms", "ms"),
    ("pipeline.leaves.ms", "ms"),
    ("pipeline.macrocells.ms", "ms"),
    ("pipeline.floorplan.ms", "ms"),
    ("pipeline.floorplan.share", "fraction"),
    ("pipeline.signoff.ms", "ms"),
    ("verify.cell_hier.ms", "ms"),
    ("verify.boundary.ms", "ms"),
    ("verify.cert_builds", "count"),
    ("verify.cert_reuse_ratio", "fraction"),
    ("compiler.svg.ms", "ms"),
    ("compiler.cif.ms", "ms"),
    ("compiler.cif.bytes", "bytes"),
    ("cache.leaf.hit_ratio", "fraction"),
    ("cache.macro.hit_ratio", "fraction"),
    ("cache.verify.hit_ratio", "fraction"),
    ("cache.verify-cert.hit_ratio", "fraction"),
    ("cache.entries", "count"),
    ("serve.parse.us", "us"),
    ("serve.submit_hot.us", "us"),
    ("serve.submit_cold.ms", "ms"),
    ("serve.executed", "count"),
    ("serve.dedup_hits", "count"),
    ("serve.memo_hit_ratio", "fraction"),
    ("wire.frame_mb_per_s", "MB/s"),
    ("wire.bytes_per_req", "bytes"),
    ("wire.transport_hot.us", "us"),
    ("field.fleet.ms", "ms"),
    ("field.sessions_run", "count"),
    ("field.rows_repaired", "count"),
    ("field.deaths", "count"),
    ("rare.pilot.ms", "ms"),
    ("rare.calibrate.ms", "ms"),
    ("rare.find_shifts.ms", "ms"),
    ("rare.is.ms", "ms"),
    ("rare.modes", "count"),
    ("rare.is_trials", "count"),
    ("rare.rse", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

#[derive(Default)]
pub struct PerLayer(BTreeMap<&'static str, f64>);

impl PerLayer {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_owned(),
                value: self
                    .0
                    .get(name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// A ratio that reads 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
