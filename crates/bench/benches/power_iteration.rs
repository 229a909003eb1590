//! Criterion bench: ObjectRank2 power-iteration execution — the dominant
//! cost in Figures 14(a)–17(a) — cold vs warm start (Figure 14(b)–17(b)
//! claim), and across damping factors.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use orex_authority::{object_rank2, RankParams};
use orex_core::SystemConfig;
use orex_datagen::Preset;
use orex_ir::{Query, QueryVector};
use std::hint::black_box;

fn bench_power_iteration(c: &mut Criterion) {
    let config = SystemConfig {
        global_warm_start: false,
        ..SystemConfig::default()
    };
    let dataset = Preset::DblpTop.generate(0.2);
    let system = orex_core::ObjectRankSystem::new(dataset.graph, dataset.ground_truth, config);
    let matrix = system.initial_matrix();
    let qv = QueryVector::initial(&Query::parse("data"), system.index().analyzer());
    let params = RankParams::default();

    let mut group = c.benchmark_group("objectrank2");
    group.sample_size(20);
    group.bench_function("cold_start", |b| {
        b.iter(|| {
            let r = object_rank2(
                &matrix,
                system.index(),
                black_box(&qv),
                &system.config().okapi,
                &params,
                None,
            )
            .unwrap();
            black_box(r.iterations)
        })
    });

    let seed = object_rank2(
        &matrix,
        system.index(),
        &qv,
        &system.config().okapi,
        &params,
        None,
    )
    .unwrap();
    // A near-identical query (what a reformulation round produces).
    let mut qv2 = qv.clone();
    qv2.add_weight("cube", 0.3);
    group.bench_function("warm_start_similar_query", |b| {
        b.iter(|| {
            let r = object_rank2(
                &matrix,
                system.index(),
                black_box(&qv2),
                &system.config().okapi,
                &params,
                Some(&seed.scores),
            )
            .unwrap();
            black_box(r.iterations)
        })
    });
    group.bench_function("cold_start_similar_query", |b| {
        b.iter(|| {
            let r = object_rank2(
                &matrix,
                system.index(),
                black_box(&qv2),
                &system.config().okapi,
                &params,
                None,
            )
            .unwrap();
            black_box(r.iterations)
        })
    });

    for damping in [0.5, 0.85, 0.95] {
        group.bench_with_input(BenchmarkId::new("damping", damping), &damping, |b, &d| {
            let p = RankParams {
                damping: d,
                ..RankParams::default()
            };
            b.iter(|| {
                object_rank2(
                    &matrix,
                    system.index(),
                    black_box(&qv),
                    &system.config().okapi,
                    &p,
                    None,
                )
                .unwrap()
                .iterations
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_power_iteration);
criterion_main!(benches);
