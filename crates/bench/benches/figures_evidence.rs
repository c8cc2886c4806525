//! Benchmarks + artifact emission for Figures 2 and 3 (IP-ID / TTL
//! injection-evidence CDFs) and the §4.2 validation numbers, plus
//! micro-benchmarks of the evidence extractors themselves. The IP-ID/TTL
//! deltas come out of the classifier's own walk, so their bench times a
//! warm `FlowMachine` reading `analysis.evidence`.

use criterion::{criterion_group, Criterion};
use tamper_analysis::report;
use tamper_bench::{emit, pregenerate, run_pipeline, standard_world, EMIT_SESSIONS};
use tamper_core::{scanner_marks, ClassifierConfig, FlowMachine};

fn emit_artifacts() {
    let sim = standard_world(EMIT_SESSIONS);
    let col = run_pipeline(&sim);
    let view = col.view();
    emit("Figure 2", &report::fig2(&view));
    emit("Figure 3", &report::fig3(&view));
    emit("Validation (§4.1–4.3)", &report::validation(&view));
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures_evidence");
    let flows = pregenerate(2_000);
    let mut machine = FlowMachine::new(ClassifierConfig::default());
    g.bench_function("rst_delta_evidence", |b| {
        b.iter(|| {
            flows
                .iter()
                .map(|lf| machine.analyze(&lf.flow).evidence)
                .filter(|ev| ev.max_rst_ipid_delta.is_some() || ev.max_rst_ttl_delta.is_some())
                .count()
        })
    });
    g.bench_function("scanner_marks", |b| {
        b.iter(|| {
            flows
                .iter()
                .filter(|lf| scanner_marks(&lf.flow).high_ttl)
                .count()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    emit_artifacts();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
