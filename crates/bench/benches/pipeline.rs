//! Pipeline-stage benchmarks: corpus generation, rendering, extraction,
//! deduplication, classification and persistence — plus the `parallel`
//! group, which sweeps the worker count over the stages the parallel
//! execution layer fans out.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::num::NonZeroUsize;

use rememberr::{
    assign_keys, load, save, save_as, Database, DbEntry, DedupStrategy, Query, QueryIndex,
    SnapshotFormat,
};
use rememberr_bench::{annotated_paper_db, paper_corpus, paper_db, small_corpus};
use rememberr_classify::{
    classify_database, classify_database_with, classify_erratum, FourEyesConfig, HumanOracle,
    MatcherKind, Rules,
};
use rememberr_docgen::{render_document, CorpusSpec, SyntheticCorpus};
use rememberr_extract::{extract_corpus, extract_document};
use rememberr_model::{Context, Design, Effect, Trigger, Vendor};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);
    group.bench_function("corpus_20pct", |b| {
        let spec = CorpusSpec::scaled(0.2);
        b.iter(|| black_box(SyntheticCorpus::generate(&spec)))
    });
    group.bench_function("corpus_paper_scale", |b| {
        let spec = CorpusSpec::paper();
        b.iter(|| black_box(SyntheticCorpus::generate(&spec)))
    });
    group.bench_function("render_largest_document", |b| {
        let corpus = paper_corpus();
        let (doc, _) = corpus
            .structured
            .iter()
            .zip(&corpus.rendered)
            .max_by_key(|(d, _)| d.len())
            .expect("non-empty corpus");
        b.iter(|| black_box(render_document(doc, &corpus.truth.defects)))
    });
    group.finish();
}

fn bench_extraction(c: &mut Criterion) {
    let corpus = paper_corpus();
    let (largest, design) = corpus
        .rendered
        .iter()
        .map(|r| (r.text.as_str(), r.design))
        .max_by_key(|(t, _)| t.len())
        .expect("non-empty corpus");
    let mut group = c.benchmark_group("extraction");
    group.sample_size(20);
    group.throughput(criterion::Throughput::Bytes(largest.len() as u64));
    group.bench_function("extract_largest_document", |b| {
        b.iter(|| black_box(extract_document(design, largest).expect("extracts")))
    });
    group.finish();
}

fn bench_dedup(c: &mut Criterion) {
    let db = paper_db();
    let entries: Vec<DbEntry> = db.entries().to_vec();
    let mut group = c.benchmark_group("dedup");
    group.sample_size(20);
    group.bench_function("assign_keys_2563_entries", |b| {
        b.iter_batched(
            || entries.clone(),
            |mut e| black_box(assign_keys(&mut e, DedupStrategy::default())),
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_classify_matcher(c: &mut Criterion) {
    // Indexed vs exhaustive rule matching over the whole library. Both
    // points of each pair produce byte-identical classifications (the
    // equivalence suite asserts it); the delta is pure anchor-token
    // pruning plus single-pass snippet extraction. Pure-auto mode keeps
    // the measurement about matching, not the four-eyes simulation.
    let corpus = SyntheticCorpus::generate(&CorpusSpec::scaled(0.25));
    let rules = Rules::standard();
    let mut group = c.benchmark_group("classify_matcher");
    group.sample_size(10);
    for (name, matcher) in [
        ("indexed", MatcherKind::Indexed),
        ("exhaustive", MatcherKind::Exhaustive),
    ] {
        group.bench_function(&format!("{name}_25pct"), |b| {
            b.iter_batched(
                || Database::from_documents(&corpus.structured),
                |mut db| {
                    black_box(classify_database_with(
                        &mut db,
                        &rules,
                        HumanOracle::None,
                        &FourEyesConfig::default(),
                        matcher,
                    ))
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_classification(c: &mut Criterion) {
    let corpus = paper_corpus();
    let rules = Rules::standard();
    let db = paper_db();
    let mut group = c.benchmark_group("classification");
    group.sample_size(10);
    group.bench_function("classify_one_erratum_all_60_categories", |b| {
        let erratum = &db.entries()[0].erratum;
        b.iter(|| black_box(classify_erratum(&rules, erratum)))
    });
    group.bench_function("classify_database_paper_scale", |b| {
        b.iter_batched(
            || Database::from_documents(&corpus.structured),
            |mut db| {
                black_box(classify_database(
                    &mut db,
                    &rules,
                    HumanOracle::Simulated(&corpus.truth),
                    &FourEyesConfig::default(),
                ))
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_persistence(c: &mut Criterion) {
    let db = paper_db();
    let mut serialized = Vec::new();
    save(db, &mut serialized).expect("save succeeds");
    let mut group = c.benchmark_group("persistence");
    group.sample_size(20);
    group.throughput(criterion::Throughput::Bytes(serialized.len() as u64));
    group.bench_function("save_jsonl", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(serialized.len());
            save(db, &mut buf).expect("save succeeds");
            black_box(buf)
        })
    });
    group.bench_function("load_jsonl", |b| {
        b.iter(|| black_box(load(serialized.as_slice()).expect("load succeeds")))
    });
    group.finish();
}

fn bench_persist_snapshot(c: &mut Criterion) {
    // JSONL vs rememberr-bin/v1 on the annotated paper-scale database —
    // the snapshot the query-serving scenarios start from. The binary
    // side pays a string-table build on save and buys back a load with
    // no per-record text parsing; `tests/persist_binary.rs` pins that the
    // binary snapshot is the smaller one.
    let db = annotated_paper_db();
    let mut group = c.benchmark_group("persist_snapshot");
    group.sample_size(20);
    for (save_name, load_name, format) in [
        ("save_jsonl", "load_jsonl", SnapshotFormat::Jsonl),
        ("save_binary", "load_binary", SnapshotFormat::Binary),
    ] {
        let mut serialized = Vec::new();
        save_as(db, &mut serialized, format).expect("save succeeds");
        group.throughput(criterion::Throughput::Bytes(serialized.len() as u64));
        group.bench_function(save_name, |b| {
            b.iter(|| {
                let mut buf = Vec::with_capacity(serialized.len());
                save_as(db, &mut buf, format).expect("save succeeds");
                black_box(buf)
            })
        });
        group.bench_function(load_name, |b| {
            b.iter(|| black_box(load(serialized.as_slice()).expect("load succeeds")))
        });
    }
    group.finish();
}

fn bench_small_end_to_end(c: &mut Criterion) {
    let corpus = small_corpus();
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    group.bench_function("rendered_text_to_keyed_db_20pct", |b| {
        b.iter(|| {
            let mut documents = Vec::new();
            for rendered in &corpus.rendered {
                documents.push(
                    extract_document(rendered.design, &rendered.text)
                        .expect("extracts")
                        .document,
                );
            }
            black_box(Database::from_documents(&documents))
        })
    });
    group.finish();
}

fn bench_query_serving(c: &mut Criterion) {
    // Indexed vs scan query serving over the annotated paper-scale
    // database, on the battery shape the analysis figures issue: one
    // unique-bug count per vendor × category. Both engines return
    // byte-identical result sequences (the equivalence suite asserts
    // it); the delta is posting-list intersection vs repeated full
    // scans. The one-off index build is measured separately so its
    // amortized cost is visible next to the per-battery savings.
    let db = annotated_paper_db();
    let mut battery = Vec::new();
    for &vendor in &Vendor::ALL {
        let base = Query::new().vendor(vendor).unique_only();
        for &trigger in Trigger::ALL {
            battery.push(base.clone().trigger(trigger));
        }
        for &context in Context::ALL {
            battery.push(base.clone().context(context));
        }
        for &effect in Effect::ALL {
            battery.push(base.clone().effect(effect));
        }
    }

    let mut group = c.benchmark_group("query_serving");
    group.sample_size(10);
    group.bench_function("build_index_paper_scale", |b| {
        b.iter(|| black_box(QueryIndex::build(db)))
    });
    let index = QueryIndex::build(db);
    group.bench_function("facet_battery_indexed", |b| {
        b.iter(|| {
            for query in &battery {
                black_box(query.count_indexed(&index, db));
            }
        })
    });
    group.bench_function("facet_battery_scan", |b| {
        b.iter(|| {
            for query in &battery {
                black_box(query.count(db));
            }
        })
    });
    group.finish();
}

fn bench_parallel(c: &mut Criterion) {
    // Worker-count sweep over the two heaviest fan-out stages, at paper
    // scale: full-corpus extraction (28 documents, 2,563 errata) and the
    // dedup cascade. jobs=1 is the sequential baseline; output is
    // byte-identical at every point of the sweep (see the determinism
    // suite), so the sweep measures pure throughput.
    let corpus = paper_corpus();
    let rendered: Vec<(Design, &str)> = corpus
        .rendered
        .iter()
        .map(|r| (r.design, r.text.as_str()))
        .collect();
    let entries: Vec<DbEntry> = paper_db().entries().to_vec();

    let max_jobs = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let mut sweep = vec![1usize, 2, max_jobs];
    sweep.sort_unstable();
    sweep.dedup();

    let mut group = c.benchmark_group("parallel");
    group.sample_size(10);
    for &jobs in &sweep {
        rememberr_par::set_jobs(NonZeroUsize::new(jobs));
        group.bench_function(&format!("extract_corpus_paper_jobs{jobs}"), |b| {
            b.iter(|| black_box(extract_corpus(rendered.iter().copied()).expect("extracts")))
        });
        group.bench_function(&format!("dedup_assign_keys_jobs{jobs}"), |b| {
            b.iter_batched(
                || entries.clone(),
                |mut e| black_box(assign_keys(&mut e, DedupStrategy::default())),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_function(&format!("generate_corpus_paper_jobs{jobs}"), |b| {
            let spec = CorpusSpec::paper();
            b.iter(|| black_box(SyntheticCorpus::generate(&spec)))
        });
    }
    rememberr_par::set_jobs(None);
    group.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_extraction,
    bench_dedup,
    bench_classify_matcher,
    bench_classification,
    bench_persistence,
    bench_persist_snapshot,
    bench_small_end_to_end,
    bench_query_serving,
    bench_parallel
);
criterion_main!(benches);
