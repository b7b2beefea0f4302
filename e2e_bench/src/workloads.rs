//! The three workloads, each driven through the workspace's public API
//! in a closed loop: one caller, and iteration `i + 1` starts when
//! iteration `i` returns.
//!
//! An untraced run times iterations only. A traced run alternates an
//! untraced iteration with a traced one (the same calls wrapped in
//! spans), so `trace.overhead_frac` compares like with like; after each
//! traced iteration it probes the layers one public call at a time and
//! runs the same iteration on the engine's sequential twin.

use crate::check;
use crate::config::{derive_seed, Args, Workload};
use crate::process;
use crate::trace::{SpanId, Tracer};
use rws_paper::analysis::{PaperReproduction, Report, ScenarioConfig};
use rws_paper::classify::CategoryDatabase;
use rws_paper::corpus::{Corpus, CorpusConfig, CorpusGenerator};
use rws_paper::domain::psl::FULL_PSL_SNAPSHOT;
use rws_paper::domain::{PublicSuffixList, SiteResolver};
use rws_paper::engine::{EngineBackend, EngineContext, ThreadPool};
use rws_paper::github::HistoryGenerator;
use rws_paper::load::{
    FaultPlan, FaultScale, LoadEngine, LoadReport, LoadScale, LoadTarget, RetryPolicy,
};
use rws_paper::net::Url;
use rws_paper::stats::Xoshiro256StarStar;
use rws_paper::survey::{PairGenerator, SurveyRunner};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Timed iterations an untraced run needs at least, so that p90 has ten
/// samples beyond it.
pub const MIN_ITERATIONS: usize = 100;
/// Untraced/traced iteration pairs a traced run needs at least.
pub const MIN_TRACE_PAIRS: usize = 20;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: u64 = 11;
/// Untimed iterations at the end of each set-up repetition, so lazy
/// set-up (the resolver's memo, the allocator's arenas) finishes before
/// the timed loop.
pub const WARMUP_ITERATIONS: u64 = 2;
/// Timed iterations whose outputs are re-checked against the sequential
/// twin after the loop (the verification seeds): one per input variant.
pub const VERIFIED_ITERATIONS: u64 = INPUT_VARIANTS;
/// Distinct inputs `experiments` and `load-storm` build in set-up and
/// cycle through (iteration `i` uses input `i % INPUT_VARIANTS`), so one
/// seed's corpus does not set a run's figures alone.
pub const INPUT_VARIANTS: u64 = 4;
/// Client count multiplier of `load-storm` over `LoadScale::smoke()`.
pub const LOAD_SCALE_FACTOR: usize = 20;

/// Trace ids of set-up repetitions start here, clear of iteration ids.
const SETUP_TRACE_BASE: u64 = 1 << 40;
/// Iteration indices of warm-up runs start here, clear of timed ones.
const WARMUP_INDEX_BASE: u64 = 1 << 41;

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Duration of each untraced timed iteration, in milliseconds.
    pub iter_ms: Vec<f64>,
    /// Units of work done by the untraced timed iterations.
    pub work: f64,
    /// What one unit of work is (`sites`, `reports`, `requests`).
    pub work_unit: &'static str,
    /// Process CPU time over the untraced loop, in milliseconds.
    pub cpu_ms: f64,
    /// Peak resident set size when the untraced loop ended (before the
    /// verification runs), in MiB.
    pub peak_rss_mb: f64,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// measured loop: a run with a high share measured the host, not the
    /// program.
    pub steal_frac: f64,
    /// Iterations run, timed and traced.
    pub attempted: u64,
    /// One entry per iteration that failed an output check.
    pub failures: Vec<String>,
    /// Tasks the engine's supervisor quarantined during the run.
    pub quarantined: u64,
    /// Worker threads of the engine's pool.
    pub pool_workers: usize,
    /// Shards of the frozen page store.
    pub store_shards: usize,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Run one workload as the arguments say.
pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    match args.workload {
        Workload::ReproPaper => repro_paper(args, tracer),
        Workload::Experiments => experiments(args, tracer),
        Workload::LoadStorm => load_storm(args, tracer),
    }
}

/// A fresh engine: parse the full PSL into a new resolver and share the
/// process pool (as wide as `available_parallelism`).
fn fresh_engine() -> EngineContext {
    let resolver = SiteResolver::new(PublicSuffixList::parse(FULL_PSL_SNAPSHOT));
    EngineContext::with_parts(ThreadPool::global().clone(), resolver)
}

/// The paper-scale configuration with every generator seed derived from
/// `seed`.
pub fn paper_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::default();
    config.corpus.seed = derive_seed(seed, 1);
    config.survey.seed = derive_seed(seed, 2);
    config.history.seed = derive_seed(seed, 3);
    config
}

/// Repeat a workload's set-up `SETUP_REPS` times, keeping the last result.
/// A repetition covers everything between process start and the first
/// timed iteration: the PSL parse, the engine, the inputs and the warm-up
/// iterations.
fn repeated_setup<T>(out: &mut Outcome, tracer: &Tracer, mut setup: impl FnMut() -> T) -> T {
    let mut last = None;
    for rep in 0..SETUP_REPS {
        tracer.begin_trace(SETUP_TRACE_BASE + rep);
        // Drop the previous repetition's state before timing this one.
        drop(last.take());
        let start = Instant::now();
        last = Some(setup());
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    last.expect("at least one set-up repetition")
}

/// Call `iteration(i)` for i = 0, 1, … until `seconds` have passed and at
/// least `min` iterations ran. Returns the process CPU time spent (ms) and
/// the share of the machine's CPU time stolen meanwhile.
fn closed_loop(seconds: f64, min: usize, mut iteration: impl FnMut(u64)) -> (f64, f64) {
    let start = Instant::now();
    let cpu_before = process::cpu_ms();
    let (stolen_before, total_before) = process::machine_ticks();
    let mut i = 0u64;
    while (i as usize) < min || start.elapsed().as_secs_f64() < seconds {
        iteration(i);
        i += 1;
    }
    let (stolen, total) = process::machine_ticks();
    let steal_frac = (stolen - stolen_before) as f64 / (total - total_before).max(1) as f64;
    (process::cpu_ms() - cpu_before, steal_frac)
}

/// An iteration's milliseconds and the verdict of its output check.
type Checked = (f64, Result<(), String>);

/// The traced run's loop: pairs of one untraced and one traced iteration,
/// alternating which goes first. Untraced iterations take even indices,
/// traced ones odd indices. Fills in the outcome's attempts, failures and
/// the metrics every traced run reports.
fn paired_loop(
    args: &Args,
    out: &mut Outcome,
    tracer: &Tracer,
    engine: &EngineContext,
    mut untraced: impl FnMut(u64) -> Checked,
    mut traced: impl FnMut(u64) -> Checked,
) {
    let mut plain = Vec::new();
    let mut wrapped = Vec::new();
    let mut checks = Vec::new();
    (_, out.steal_frac) = closed_loop(args.seconds, MIN_TRACE_PAIRS, |pair| {
        let mut run = |is_traced: bool| {
            let i = 2 * pair + u64::from(is_traced);
            let (ms, result) = if is_traced { traced(i) } else { untraced(i) };
            if is_traced { &mut wrapped } else { &mut plain }.push(ms);
            checks.push((i, result));
        };
        let traced_first = pair % 2 == 1;
        run(traced_first);
        run(!traced_first);
    });
    out.attempted = checks.len() as u64;
    for (i, result) in checks {
        note(out, i, result);
    }
    let layers = &mut out.layers;
    layers.insert("engine.pool_workers", pool_workers(engine) as f64);
    layers.insert(
        "trace.overhead_frac",
        crate::stats::median(&wrapped) / crate::stats::median(&plain) - 1.0,
    );
    layers.insert("trace.pairs", wrapped.len() as f64);
    for name in [
        "resolver.lookups",
        "resolver.hit_ratio",
        "supervision.tasks_run",
        "supervision.quarantined",
    ] {
        layers.insert(name, tracer.median_count(name).unwrap_or(0.0));
    }
}

/// Insert the median duration of span `span` as metric `name`, and the
/// median of each named count, into the outcome's layers.
fn insert_medians(
    out: &mut Outcome,
    tracer: &Tracer,
    spans: &[(&'static str, &str)],
    counts: &[&'static str],
) {
    for &(name, span) in spans {
        out.layers
            .insert(name, tracer.median_ms(span).unwrap_or(0.0));
    }
    for &name in counts {
        out.layers
            .insert(name, tracer.median_count(name).unwrap_or(0.0));
    }
}

/// The median duration of span `span` over that of `base`.
fn span_ratio(tracer: &Tracer, span: &str, base: &str) -> f64 {
    tracer.median_ms(span).unwrap_or(0.0) / tracer.median_ms(base).unwrap_or(f64::NAN)
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Record the failure of iteration `i`, if any.
fn note(out: &mut Outcome, i: u64, result: Result<(), String>) {
    if let Err(message) = result {
        out.failures.push(format!("iteration {i}: {message}"));
    }
}

/// Counters to difference around a traced iteration.
struct Counters {
    lookups: u64,
    hits: u64,
    tasks_run: u64,
    quarantined: u64,
}

impl Counters {
    fn read(engine: &EngineContext) -> Counters {
        let resolver = engine.resolver().stats();
        let supervision = engine.supervision_report();
        Counters {
            lookups: resolver.hits + resolver.misses,
            hits: resolver.hits,
            tasks_run: supervision.tasks_run,
            quarantined: supervision.quarantined,
        }
    }

    /// Record the change since `self` as per-iteration counts.
    fn record_delta(&self, engine: &EngineContext, tracer: &Tracer) {
        let now = Counters::read(engine);
        let lookups = now.lookups - self.lookups;
        tracer.count("resolver.lookups", lookups as f64);
        if lookups > 0 {
            tracer.count(
                "resolver.hit_ratio",
                (now.hits - self.hits) as f64 / lookups as f64,
            );
        }
        tracer.count(
            "supervision.tasks_run",
            (now.tasks_run - self.tasks_run) as f64,
        );
        tracer.count(
            "supervision.quarantined",
            (now.quarantined - self.quarantined) as f64,
        );
    }
}

/// Every live front page of a corpus, as the classifier reads them.
fn live_pages(corpus: &Corpus) -> Vec<&str> {
    corpus
        .sites
        .keys()
        .filter_map(|domain| corpus.page_html(domain))
        .collect()
}

/// Tokenize every live page once, inside an `html.tokenize` span.
fn probe_tokenize(tracer: &Tracer, parent: SpanId, corpus: &Corpus) {
    let pages = live_pages(corpus);
    tracer.span(Some(parent), "html.tokenize", |_| {
        for page in &pages {
            black_box(rws_paper::html::tokenize(black_box(page)));
        }
    });
}

/// Generate a corpus inside a `corpus` span and count what it holds.
fn traced_corpus(
    tracer: &Tracer,
    parent: Option<SpanId>,
    config: CorpusConfig,
    engine: &EngineContext,
) -> Corpus {
    let start = Instant::now();
    let corpus = tracer.span(parent, "corpus", |_| {
        CorpusGenerator::new(config).generate_with(engine)
    });
    let secs = start.elapsed().as_secs_f64();
    let html_mb = corpus
        .sharded
        .shard_stats()
        .iter()
        .map(|s| s.body_bytes)
        .sum::<usize>() as f64
        / 1e6;
    tracer.count("corpus.sites", corpus.sites.len() as f64);
    tracer.count("corpus.html_mb", html_mb);
    tracer.count("corpus.mb_per_s", html_mb / secs);
    corpus
}

// ---------------------------------------------------------------------------
// repro-paper
// ---------------------------------------------------------------------------

/// One `repro-paper` iteration: the full reproduction at `config`.
/// Returns the reports and the number of sites generated.
fn reproduce(config: ScenarioConfig, engine: &EngineContext) -> (Vec<Report>, usize) {
    let repro = PaperReproduction::with_engine(config, engine.clone());
    let reports = repro.run_all();
    (reports, repro.scenario().corpus.sites.len())
}

fn repro_paper(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        work_unit: "sites",
        ..Outcome::default()
    };
    let config_of = |i: u64| paper_config(derive_seed(args.seed, i));
    let engine = repeated_setup(&mut out, tracer, || {
        let engine = fresh_engine();
        for w in 0..WARMUP_ITERATIONS {
            black_box(reproduce(config_of(WARMUP_INDEX_BASE + w), &engine));
        }
        engine
    });
    let before = Counters::read(&engine);
    let twin = engine.sequential_twin();

    if args.trace {
        paired_loop(
            args,
            &mut out,
            tracer,
            &engine,
            |i| {
                let start = Instant::now();
                let (reports, _) = reproduce(config_of(i), &engine);
                (ms_since(start), check::check_paper_order(&reports))
            },
            |i| {
                let config = config_of(i);
                tracer.begin_trace(i);
                let counters = Counters::read(&engine);
                let start = Instant::now();
                let reports = tracer.span(None, "iteration", |it| {
                    let repro = PaperReproduction::with_engine(config, engine.clone());
                    tracer.span(Some(it), "scenario", |_| black_box(repro.scenario()));
                    tracer.span(Some(it), "run_all", |_| repro.run_all())
                });
                let ms = ms_since(start);
                counters.record_delta(&engine, tracer);

                // Probes, outside the iteration: each stage alone, then
                // the tokenizer and each experiment alone over a second
                // copy of the scenario, then the same iteration on the
                // sequential twin.
                tracer.span(None, "probe", |probe| {
                    probe_pipeline_stages(tracer, probe, config, &engine);
                    let repro = PaperReproduction::with_engine(config, engine.clone());
                    tracer.span(Some(probe), "probe.scenario", |_| {
                        black_box(repro.scenario())
                    });
                    probe_tokenize(tracer, probe, &repro.scenario().corpus);
                    probe_experiments(tracer, probe, &repro);
                });
                let (sequential, _) =
                    tracer.span(None, "twin.iteration", |_| reproduce(config, &twin));
                let result = check::check_paper_order(&reports).and_then(|_| {
                    check::check_same_reports("pooled vs sequential", &sequential, &reports)
                });
                (ms, result)
            },
        );
        insert_medians(
            &mut out,
            tracer,
            &[
                ("corpus.ms", "corpus"),
                ("classify.ms", "classify"),
                ("history.ms", "history"),
                ("pairs.ms", "pairs"),
                ("survey.ms", "survey"),
                ("scenario.ms", "scenario"),
                ("run_all.ms", "run_all"),
                ("html.tokenize_ms", "html.tokenize"),
            ],
            &[
                "corpus.sites",
                "corpus.html_mb",
                "corpus.mb_per_s",
                "classify.pages",
                "classify.mb_per_s",
                "history.prs",
                "pairs.total",
                "survey.responses",
            ],
        );
        insert_experiment_medians(&mut out, tracer);
        // The scenario's time not covered by its stages run alone: the
        // join and the snapshot rebuild, which no public call exposes.
        let stage = |name: &str| tracer.median_ms(name).unwrap_or(0.0);
        let critical = stage("history").max(stage("classify") + stage("pairs") + stage("survey"));
        out.layers.insert(
            "scenario.unattributed_ms",
            stage("scenario") - stage("corpus") - critical,
        );
        out.layers.insert(
            "engine.inline_vs_pooled",
            span_ratio(tracer, "twin.iteration", "iteration"),
        );
    } else {
        let mut kept: Vec<Vec<Report>> = Vec::new();
        let mut checks = Vec::new();
        (out.cpu_ms, out.steal_frac) = closed_loop(args.seconds, MIN_ITERATIONS, |i| {
            let start = Instant::now();
            let (reports, sites) = reproduce(config_of(i), &engine);
            out.iter_ms.push(ms_since(start));
            out.work += sites as f64;
            checks.push((i, check::check_paper_order(&reports)));
            if i < VERIFIED_ITERATIONS {
                kept.push(reports);
            }
        });
        out.peak_rss_mb = process::peak_rss_mb();
        // Verification: the pooled reports of the first iterations equal
        // the sequential twin's.
        for (i, pooled) in (0..).zip(&kept) {
            let (sequential, _) = reproduce(config_of(i), &twin);
            checks.push((
                i,
                check::check_same_reports("pooled vs sequential", &sequential, pooled),
            ));
        }
        finish_untraced(&mut out, checks);
    }
    out.quarantined = Counters::read(&engine).quarantined - before.quarantined;
    out.pool_workers = pool_workers(&engine);
    out.store_shards = CorpusGenerator::new(CorpusConfig::default()).shard_count();
    out
}

/// Run the scenario pipeline's stages one public call at a time, each in
/// its own span, the way `Scenario::generate_with` chains them.
fn probe_pipeline_stages(
    tracer: &Tracer,
    parent: SpanId,
    config: ScenarioConfig,
    engine: &EngineContext,
) {
    let corpus = traced_corpus(tracer, Some(parent), config.corpus, engine);
    let history = tracer.span(Some(parent), "history", |_| {
        HistoryGenerator::new(config.history).generate_with(&corpus, engine)
    });
    tracer.count("history.prs", history.len() as f64);

    let pages = live_pages(&corpus);
    let page_mb = pages.iter().map(|p| p.len()).sum::<usize>() as f64 / 1e6;
    let start = Instant::now();
    let categories = tracer.span(Some(parent), "classify", |_| {
        CategoryDatabase::classify_corpus_on(&corpus, engine)
    });
    tracer.count("classify.pages", pages.len() as f64);
    tracer.count("classify.mb_per_s", page_mb / start.elapsed().as_secs_f64());

    let pairs = tracer.span(Some(parent), "pairs", |_| {
        let mut rng = Xoshiro256StarStar::new(config.survey.seed).derive("pair-universe");
        let mut generator = PairGenerator::new(&corpus, &categories);
        generator.top_site_sample = config.top_site_sample;
        generator.generate_on(&mut rng, engine)
    });
    tracer.count("pairs.total", pairs.total() as f64);
    let survey = tracer.span(Some(parent), "survey", |_| {
        SurveyRunner::new(config.survey).run_on(&corpus, &pairs, engine)
    });
    tracer.count("survey.responses", survey.responses.len() as f64);
}

/// Run each experiment alone over the reproduction's scenario.
fn probe_experiments(tracer: &Tracer, parent: SpanId, repro: &PaperReproduction) {
    for id in check::PAPER_ORDER {
        let name = format!("experiment.{id}");
        tracer.span(Some(parent), &name, |_| black_box(repro.run(id)));
    }
}

fn insert_experiment_medians(out: &mut Outcome, tracer: &Tracer) {
    for (name, _) in crate::metrics::PER_LAYER
        .iter()
        .filter(|(n, _)| n.starts_with("experiment."))
    {
        let span = name
            .strip_suffix(".ms")
            .expect("experiment metrics end in .ms");
        out.layers
            .insert(name, tracer.median_ms(span).unwrap_or(0.0));
    }
}

/// Record an untraced run's attempts and failed checks.
fn finish_untraced(out: &mut Outcome, checks: Vec<(u64, Result<(), String>)>) {
    out.attempted = out.iter_ms.len() as u64;
    for (i, result) in checks {
        note(out, i, result);
    }
}

fn pool_workers(engine: &EngineContext) -> usize {
    engine.pool().map_or(0, ThreadPool::worker_count)
}

// ---------------------------------------------------------------------------
// experiments
// ---------------------------------------------------------------------------

fn experiments(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        work_unit: "reports",
        ..Outcome::default()
    };
    let configs: Vec<ScenarioConfig> = (0..INPUT_VARIANTS)
        .map(|k| paper_config(derive_seed(args.seed, k)))
        .collect();
    let (engine, repros) = repeated_setup(&mut out, tracer, || {
        let engine = fresh_engine();
        let repros: Vec<PaperReproduction> = configs
            .iter()
            .map(|&config| {
                let repro = PaperReproduction::with_engine(config, engine.clone());
                tracer.span(None, "scenario", |_| black_box(repro.scenario()));
                repro
            })
            .collect();
        for w in 0..WARMUP_ITERATIONS {
            black_box(repros[(w % INPUT_VARIANTS) as usize].run_all());
        }
        (engine, repros)
    });
    let before = Counters::read(&engine);
    let repro_of = |i: u64| &repros[(i % INPUT_VARIANTS) as usize];
    let firsts: Vec<Vec<Report>> = repros.iter().map(PaperReproduction::run_all).collect();
    let twins: Vec<PaperReproduction> = configs
        .iter()
        .map(|&config| PaperReproduction::with_engine(config, engine.sequential_twin()))
        .collect();
    let against_first = |i: u64, reports: &[Report]| {
        let first = &firsts[(i % INPUT_VARIANTS) as usize];
        check::check_paper_order(reports)
            .and_then(|_| check::check_same_reports("iteration vs first", first, reports))
    };

    if args.trace {
        paired_loop(
            args,
            &mut out,
            tracer,
            &engine,
            |i| {
                let start = Instant::now();
                let reports = repro_of(i).run_all();
                (ms_since(start), against_first(i, &reports))
            },
            |i| {
                let repro = repro_of(i);
                tracer.begin_trace(i);
                let counters = Counters::read(&engine);
                let start = Instant::now();
                let reports = tracer.span(None, "iteration", |it| {
                    tracer.span(Some(it), "run_all", |_| repro.run_all())
                });
                let ms = ms_since(start);
                counters.record_delta(&engine, tracer);
                tracer.span(None, "probe", |probe| {
                    probe_tokenize(tracer, probe, &repro.scenario().corpus);
                    probe_experiments(tracer, probe, repro);
                });
                let twin = &twins[(i % INPUT_VARIANTS) as usize];
                let inline = tracer.span(None, "twin.run_all", |_| twin.run_all());
                let result = against_first(i, &reports).and_then(|_| {
                    check::check_same_reports("pooled vs sequential", &inline, &reports)
                });
                (ms, result)
            },
        );
        insert_medians(
            &mut out,
            tracer,
            &[
                ("run_all.ms", "run_all"),
                ("scenario.ms", "scenario"),
                ("html.tokenize_ms", "html.tokenize"),
            ],
            &[],
        );
        insert_experiment_medians(&mut out, tracer);
        out.layers.insert(
            "engine.inline_vs_pooled",
            span_ratio(tracer, "twin.run_all", "run_all"),
        );
    } else {
        let mut checks = Vec::new();
        (out.cpu_ms, out.steal_frac) = closed_loop(args.seconds, MIN_ITERATIONS, |i| {
            let start = Instant::now();
            let reports = repro_of(i).run_all();
            out.iter_ms.push(ms_since(start));
            out.work += reports.len() as f64;
            checks.push((i, against_first(i, &reports)));
        });
        out.peak_rss_mb = process::peak_rss_mb();
        // Verification: each scenario's pooled reports equal its twin's.
        for (k, (twin, first)) in (0..).zip(twins.iter().zip(&firsts)) {
            let result = check::check_same_reports("pooled vs sequential", &twin.run_all(), first);
            checks.push((k, result));
        }
        finish_untraced(&mut out, checks);
    }
    out.quarantined = Counters::read(&engine).quarantined - before.quarantined;
    out.pool_workers = pool_workers(&engine);
    out.store_shards = repros[0].scenario().corpus.sharded.shard_count();
    out
}

// ---------------------------------------------------------------------------
// load-storm
// ---------------------------------------------------------------------------

/// The storm target over a paper-scale corpus generated from `seed`, and
/// the corpus store's shard count.
fn storm_target(seed: u64, engine: &EngineContext, tracer: &Tracer) -> (LoadEngine, usize) {
    let config = CorpusConfig {
        seed: derive_seed(seed, 1),
        ..CorpusConfig::default()
    };
    let corpus = traced_corpus(tracer, None, config, engine);
    let target = tracer.span(None, "load.target_build", |_| {
        LoadTarget::from_corpus(&corpus)
            .with_faults(FaultPlan::new(derive_seed(seed, 2), FaultScale::storm()))
            .with_retry(RetryPolicy::standard())
    });
    let scale = LoadScale::smoke().times(LOAD_SCALE_FACTOR);
    (LoadEngine::new(target, scale), corpus.sharded.shard_count())
}

fn load_storm(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome {
        work_unit: "requests",
        ..Outcome::default()
    };
    let (engine, loads, shards) = repeated_setup(&mut out, tracer, || {
        let engine = fresh_engine();
        let mut shards = 0;
        let loads: Vec<LoadEngine> = (0..INPUT_VARIANTS)
            .map(|k| {
                let (load, n) = storm_target(derive_seed(args.seed, k), &engine, tracer);
                shards = n;
                load
            })
            .collect();
        for w in 0..WARMUP_ITERATIONS {
            let load = &loads[(w % INPUT_VARIANTS) as usize];
            black_box(load.run_on(derive_seed(args.seed, WARMUP_INDEX_BASE + w), &engine));
        }
        (engine, loads, shards)
    });
    let before = Counters::read(&engine);
    let load_of = |i: u64| &loads[(i % INPUT_VARIANTS) as usize];
    let seed_of = |i: u64| derive_seed(args.seed, i);
    let clients = LoadScale::smoke().times(LOAD_SCALE_FACTOR).clients as u64;
    let check_run = |report: &LoadReport| {
        check::check_no_quarantine("load chunks", report.supervision.quarantined).and_then(|_| {
            if report.clients == clients {
                Ok(())
            } else {
                Err(format!("{} clients, expected {clients}", report.clients))
            }
        })
    };

    if args.trace {
        let twin = engine.sequential_twin();
        let urls: Vec<Vec<Url>> = loads.iter().map(|l| page_urls(l.target())).collect();
        paired_loop(
            args,
            &mut out,
            tracer,
            &engine,
            |i| {
                let start = Instant::now();
                let report = load_of(i).run_on(seed_of(i), &engine);
                (ms_since(start), check_run(&report))
            },
            |i| {
                let load = load_of(i);
                tracer.begin_trace(i);
                let counters = Counters::read(&engine);
                let start = Instant::now();
                let report = tracer.span(None, "iteration", |it| {
                    tracer.span(Some(it), "load.run_on", |_| {
                        load.run_on(seed_of(i), &engine)
                    })
                });
                let ms = ms_since(start);
                counters.record_delta(&engine, tracer);
                record_load_counts(tracer, &report);
                let replay = tracer.span(None, "load.replay_sequential", |_| {
                    load.replay_sequential_with(seed_of(i), engine.resolver())
                });
                let inline = tracer.span(None, "twin.run_on", |_| load.run_on(seed_of(i), &twin));
                let urls = &urls[(i % INPUT_VARIANTS) as usize];
                let start = Instant::now();
                tracer.span(None, "net.serve_all", |_| {
                    let frozen = load.target().frozen();
                    for url in urls {
                        black_box(frozen.serve(black_box(url)));
                    }
                });
                tracer.count(
                    "net.serve_ns",
                    start.elapsed().as_nanos() as f64 / urls.len() as f64,
                );
                let result = check_run(&report)
                    .and_then(|_| check::check_same_load("run_on vs replay", &replay, &report))
                    .and_then(|_| check::check_same_load("pooled vs inline", &inline, &report));
                (ms, result)
            },
        );
        insert_medians(
            &mut out,
            tracer,
            &[
                ("corpus.ms", "corpus"),
                ("load.target_build_ms", "load.target_build"),
                ("load.ms", "load.run_on"),
            ],
            &[
                "corpus.sites",
                "corpus.html_mb",
                "corpus.mb_per_s",
                "net.serve_ns",
                "load.wire_requests",
                "load.retries",
                "load.retry_success_ratio",
                "load.conn_reuse_ratio",
                "load.decisions",
            ],
        );
        out.layers.insert(
            "load.inline_vs_pooled",
            span_ratio(tracer, "load.replay_sequential", "load.run_on"),
        );
        out.layers.insert(
            "engine.inline_vs_pooled",
            span_ratio(tracer, "twin.run_on", "load.run_on"),
        );
    } else {
        let mut kept: Vec<LoadReport> = Vec::new();
        let mut checks = Vec::new();
        (out.cpu_ms, out.steal_frac) = closed_loop(args.seconds, MIN_ITERATIONS, |i| {
            let start = Instant::now();
            let report = load_of(i).run_on(seed_of(i), &engine);
            out.iter_ms.push(ms_since(start));
            out.work += report.wire_requests as f64;
            checks.push((i, check_run(&report)));
            if i < VERIFIED_ITERATIONS {
                kept.push(report);
            }
        });
        out.peak_rss_mb = process::peak_rss_mb();
        // Verification: the first iterations' pooled reports equal the
        // sequential replay's.
        for (i, pooled) in (0..).zip(&kept) {
            let replay = load_of(i).replay_sequential_with(seed_of(i), engine.resolver());
            checks.push((
                i,
                check::check_same_load("run_on vs replay", &replay, pooled),
            ));
        }
        finish_untraced(&mut out, checks);
    }
    out.quarantined = Counters::read(&engine).quarantined - before.quarantined;
    out.pool_workers = pool_workers(&engine);
    out.store_shards = shards;
    out
}

/// Every page URL the load target serves (each host's every path).
fn page_urls(target: &LoadTarget) -> Vec<Url> {
    let frozen = target.frozen();
    frozen
        .hosts()
        .iter()
        .flat_map(|host| {
            let site = frozen.host(host).expect("listed host exists");
            site.paths()
                .into_iter()
                .map(|path| Url::https(host, path))
                .collect::<Vec<_>>()
        })
        .collect()
}

fn record_load_counts(tracer: &Tracer, report: &LoadReport) {
    tracer.count("load.wire_requests", report.wire_requests as f64);
    tracer.count("load.retries", report.retries as f64);
    if report.retries > 0 {
        tracer.count(
            "load.retry_success_ratio",
            report.retry_successes as f64 / report.retries as f64,
        );
    }
    let connections = report.connections_opened + report.connections_reused;
    if connections > 0 {
        tracer.count(
            "load.conn_reuse_ratio",
            report.connections_reused as f64 / connections as f64,
        );
    }
    tracer.count("load.decisions", report.decisions as f64);
}
