//! The traced compile path shared by `compile-scale` and `daemon-mix`:
//! one compile job driven stage by stage through
//! `PipelineCtx::run_stage`, then rendered through the public
//! `CompiledRam` calls, each call inside its own span. A separate
//! verification probe re-runs hierarchical verification per macrocell
//! over an in-memory certificate store.

use crate::perlayer::{ratio, PerLayer};
use crate::trace::Tracer;
use crate::util::{median, Outcome};
use bisram_layout::leaf::LeafSpec;
use bisram_serve::{CompileJob, Section};
use bisram_tech::Process;
use bisram_verify::hier::{
    boundary_findings, verify_cell_hier, CellCertificate, CertificateStore, MemCertStore,
};
use bisram_verify::SchematicLib;
use bisramgen::pipeline::control::ControlStage;
use bisramgen::pipeline::floorplan::{Floorplan, FloorplanStage};
use bisramgen::pipeline::leaves::{LeafKey, LeafStage};
use bisramgen::pipeline::macrocells::{MacroSet, MacroStage};
use bisramgen::pipeline::signoff::SignoffStage;
use bisramgen::pipeline::PipelineCtx;
use bisramgen::{compile_with, CellCache, CompileOptions, RamParams};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The pipeline stages, in `run_pipeline` order, as span names.
pub const STAGES: [&str; 5] = [
    "pipeline.control",
    "pipeline.leaves",
    "pipeline.macrocells",
    "pipeline.floorplan",
    "pipeline.signoff",
];

/// The render calls made after the pipeline, as span names.
pub const RENDERS: [&str; 7] = [
    "compiler.assemble",
    "compiler.datasheet",
    "compiler.svg",
    "compiler.pla",
    "compiler.spice",
    "compiler.cif",
    "compiler.verify_report",
];

/// Whether a response carries a flattened CIF. Above a size of its own
/// choosing the service streams a one-line stub in its place, so the
/// benchmark reads the choice from the response rather than copying the
/// service's threshold.
pub fn has_flat_cif(sections: &[Section]) -> bool {
    sections
        .iter()
        .any(|s| s.name == "layout.cif" && s.content.lines().nth(1).is_some())
}

fn params_of(job: &CompileJob) -> Result<RamParams, String> {
    let process =
        Process::by_name(&job.process).ok_or_else(|| format!("unknown process {}", job.process))?;
    RamParams::builder()
        .words(job.words)
        .bits_per_word(job.bpw)
        .bits_per_column(job.bpc)
        .spare_rows(job.spares)
        .gate_size(job.gate_size)
        .strap(job.strap_every, job.strap_lambda)
        .process(process)
        .build()
        .map_err(|e| e.to_string())
}

/// What a traced compile leaves behind: the sections it rendered (for
/// the byte comparison against the untraced run) and the stage
/// artifacts the verification probe needs.
pub struct Traced {
    pub sections: Vec<Section>,
    pub macros: Arc<MacroSet>,
    pub floorplan: Arc<Floorplan>,
    pub leaf_key: LeafKey,
    pub params: RamParams,
}

fn section(name: &str, content: String) -> Section {
    Section {
        name: name.to_owned(),
        content,
    }
}

/// Compiles `job` on `cache` one stage at a time, then renders every
/// artifact a `compile` job streams (bar the area and metric text,
/// which the service formats itself). `artifacts = false` renders only
/// what a `characterize` job needs (nothing beyond the compile).
/// `flat_cif` renders the flattened CIF, for a job whose untraced
/// response carried one (see [`has_flat_cif`]).
pub fn traced_compile(
    t: &mut Tracer,
    req: u64,
    job: &CompileJob,
    cache: &Arc<CellCache>,
    jobs: usize,
    artifacts: bool,
    flat_cif: bool,
) -> Result<Traced, String> {
    let params = params_of(job)?;
    let mut options = CompileOptions::new()
        .with_cache(Arc::clone(cache))
        .with_jobs(jobs)
        .with_verify(job.verify.mode().is_some());
    if let Some(mode) = job.verify.mode() {
        options = options.with_verify_mode(mode);
    }
    let ctx = PipelineCtx::new(&params, &options);
    let err = |e: bisramgen::CompileError| e.to_string();
    let control = t
        .span(STAGES[0], req, |_| ctx.run_stage(&ControlStage))
        .map_err(err)?;
    let leaves = t
        .span(STAGES[1], req, |_| ctx.run_stage(&LeafStage))
        .map_err(err)?;
    let macros = t
        .span(STAGES[2], req, |_| {
            ctx.run_stage(&MacroStage {
                control: Arc::clone(&control),
                leaves,
            })
        })
        .map_err(err)?;
    let floorplan = t
        .span(STAGES[3], req, |_| {
            ctx.run_stage(&FloorplanStage {
                macros: Arc::clone(&macros),
            })
        })
        .map_err(err)?;
    t.span(STAGES[4], req, |_| {
        ctx.run_stage(&SignoffStage {
            macros: Arc::clone(&macros),
            floorplan: Arc::clone(&floorplan),
            pla: control.pla.clone(),
        })
    })
    .map_err(err)?;
    let leaf_key = LeafKey::of(&ctx);

    // Every stage is now cached, so this assembles the facade from hits.
    let ram = t
        .span(RENDERS[0], req, |_| compile_with(&params, &options))
        .map_err(err)?;
    let mut sections = Vec::new();
    if artifacts {
        let datasheet = t.span(RENDERS[1], req, |_| ram.datasheet().to_string());
        sections.push(section("datasheet.txt", datasheet));
        let svg = t.span(RENDERS[2], req, |_| ram.floorplan_svg());
        sections.push(section("floorplan.svg", svg));
        let (and_plane, or_plane) = t.span(RENDERS[3], req, |_| ram.pla_planes());
        sections.push(section("trpla_and.plane", and_plane));
        sections.push(section("trpla_or.plane", or_plane));
        let spice = t.span(RENDERS[4], req, |_| ram.sense_path_spice());
        sections.push(section("sense_path.sp", spice));
        if flat_cif {
            let cif = t.span(RENDERS[5], req, |_| ram.to_cif());
            sections.push(section("layout.cif", cif));
        }
    }
    if let Some(report) = ram.verify_report() {
        let text = t.span(RENDERS[6], req, |_| report.to_string());
        sections.push(section("verify.txt", text));
    }
    Ok(Traced {
        sections,
        macros,
        floorplan,
        leaf_key,
        params,
    })
}

/// Checks that every section the traced path rendered is byte-equal to
/// the section of the same name in the untraced response.
pub fn same_sections(traced: &[Section], untraced: &[Section]) -> Result<(), String> {
    for s in traced {
        match untraced.iter().find(|u| u.name == s.name) {
            Some(u) if u.content == s.content => {}
            Some(u) => {
                return Err(format!(
                    "section {} differs ({} traced vs {} untraced bytes)",
                    s.name,
                    s.content.len(),
                    u.content.len()
                ))
            }
            None => {
                return Err(format!(
                    "section {} missing from the untraced response",
                    s.name
                ))
            }
        }
    }
    Ok(())
}

/// The leaf cells a compile's macrocells are tiled from: the schematic
/// library hierarchical verification composes references out of (the
/// same list signoff verifies against).
fn leaf_specs(key: &LeafKey) -> Vec<LeafSpec> {
    vec![
        LeafSpec::Sram6t,
        LeafSpec::RowDecoder {
            address_bits: key.row_bits,
        },
        LeafSpec::WordlineDriver {
            size_factor: key.gate_size,
        },
        LeafSpec::Precharge {
            size_factor: key.gate_size,
        },
        LeafSpec::ColMux,
        LeafSpec::SenseAmp,
        LeafSpec::WriteDriver,
        LeafSpec::Dff,
        LeafSpec::CounterBit,
        LeafSpec::Xor2,
        LeafSpec::CamBit,
        LeafSpec::PlaCrosspoint { programmed: true },
        LeafSpec::PlaCrosspoint { programmed: false },
        LeafSpec::PlaPullup,
    ]
}

/// A [`MemCertStore`] that also counts lookups, so certificate reuse
/// can be reported as a ratio.
struct CountingStore {
    inner: MemCertStore,
    lookups: AtomicUsize,
}

impl CertificateStore for CountingStore {
    fn get_or_build(
        &self,
        key: u64,
        build: &mut dyn FnMut() -> CellCertificate,
    ) -> Arc<CellCertificate> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.inner.get_or_build(key, build)
    }
}

/// Certificate traffic of verification probes, and how many ran.
#[derive(Default)]
pub struct VerifyTally {
    pub probes: u64,
    pub cert_builds: u64,
    pub cert_lookups: u64,
}

impl VerifyTally {
    /// Runs [`verify_probe`] under a `probe.verify` span and adds its
    /// traffic; a failure is an output check failure.
    pub fn probe(&mut self, t: &mut Tracer, req: u64, traced: &Traced, out: &mut Outcome) {
        match t.span("probe.verify", req, |t| verify_probe(t, req, traced)) {
            Ok((builds, lookups)) => {
                self.probes += 1;
                self.cert_builds += builds;
                self.cert_lookups += lookups;
            }
            Err(e) => out.check(false, || format!("verify probe: {e}")),
        }
    }

    /// Per-probe self times and certificate reuse.
    pub fn set_metrics(&self, layer: &mut PerLayer, t: &Tracer) {
        let probes = self.probes as f64;
        layer.set(
            "verify.cell_hier.ms",
            ratio(t.self_ms("verify.cell_hier"), probes),
        );
        layer.set(
            "verify.boundary.ms",
            ratio(t.self_ms("verify.boundary"), probes),
        );
        layer.set("verify.cert_builds", self.cert_builds as f64);
        layer.set(
            "verify.cert_reuse_ratio",
            ratio(
                (self.cert_lookups - self.cert_builds) as f64,
                self.cert_lookups as f64,
            ),
        );
    }
}

/// Re-verifies every macrocell of a traced compile hierarchically over
/// a fresh in-memory certificate store, then runs the boundary pass on
/// the placed floorplan. Fails when either finds anything: every
/// benchmark design is clean. Returns `(certificate builds, lookups)`.
fn verify_probe(t: &mut Tracer, req: u64, traced: &Traced) -> Result<(u64, u64), String> {
    let process = traced.params.process();
    let rules = process.rules();
    let lib = SchematicLib::for_leaves(&leaf_specs(&traced.leaf_key), process);
    let store = CountingStore {
        inner: MemCertStore::new(),
        lookups: AtomicUsize::new(0),
    };
    for (name, cell) in &traced.macros.cells {
        let report = t.span("verify.cell_hier", req, |_| {
            verify_cell_hier(rules, cell, &lib, &store)
        });
        if !report.is_clean() {
            return Err(format!("hierarchical verify of {name} is not clean"));
        }
    }
    let placed = traced.floorplan.placement.clone().into_cell("floorplan");
    let findings = t
        .span("verify.boundary", req, |_| {
            boundary_findings(rules, &placed)
        })
        .map_err(|e| format!("boundary pass failed: {e}"))?;
    if !findings.is_empty() {
        return Err(format!("boundary pass found {} violations", findings.len()));
    }
    Ok((
        store.inner.builds() as u64,
        store.lookups.load(Ordering::Relaxed) as u64,
    ))
}

/// Sets the pipeline and render metrics from the spans of
/// `compiles` traced compiles: stage self time per compile, render self
/// time per call, and the median CIF size.
pub fn set_compile_metrics(layer: &mut PerLayer, t: &Tracer, compiles: f64, cif_bytes: &[f64]) {
    for (span, name) in STAGES.iter().zip([
        "pipeline.control.ms",
        "pipeline.leaves.ms",
        "pipeline.macrocells.ms",
        "pipeline.floorplan.ms",
        "pipeline.signoff.ms",
    ]) {
        layer.set(name, ratio(t.self_ms(span), compiles));
    }
    let stage_self: f64 = STAGES.iter().map(|s| t.self_ms(s)).sum();
    layer.set(
        "pipeline.floorplan.share",
        ratio(t.self_ms(STAGES[3]), stage_self),
    );
    layer.set("compiler.svg.ms", t.self_ms_per_call("compiler.svg"));
    layer.set("compiler.cif.ms", t.self_ms_per_call("compiler.cif"));
    layer.set("compiler.cif.bytes", median(cif_bytes));
}

/// Sets the per-kind cache hit ratios.
pub fn set_cache_ratios(layer: &mut PerLayer, stats: &[bisramgen::KindStats]) {
    for (kind, name) in [
        ("leaf", "cache.leaf.hit_ratio"),
        ("macro", "cache.macro.hit_ratio"),
        ("verify", "cache.verify.hit_ratio"),
        ("verify-cert", "cache.verify-cert.hit_ratio"),
    ] {
        layer.set(name, hit_ratio(stats, kind));
    }
}

/// Hit ratio of one cache kind (`0` when the kind saw no traffic).
fn hit_ratio(stats: &[bisramgen::KindStats], kind: &str) -> f64 {
    stats.iter().find(|s| s.kind == kind).map_or(0.0, |s| {
        let total = s.hits + s.misses;
        if total == 0 {
            0.0
        } else {
            s.hits as f64 / total as f64
        }
    })
}
