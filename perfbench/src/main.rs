//! End-to-end and per-layer benchmark of `cgt verify` and the `cgtd`
//! serving routes.  See README.md for the workloads, metrics and method.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--self-test]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod checks;
mod client;
mod daemon;
mod inputs;
mod layers;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cg_trace::proto::{ClientError, ErrorClass, SubmitOutcome};

use crate::checks::{check_result, check_soundness, entry};
use crate::client::Spans;
use crate::daemon::{Daemon, DaemonConfig};
use crate::inputs::{encode, verify_local, Expected, Inputs, Rng, Route, Spec};
use crate::layers::{Layers, KINDS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest rounds with timed open-loop sessions a run ends with, so every
/// median over rounds rests on at least this many.
const MIN_ROUNDS: usize = 10;
/// The measured phase stops here even without enough samples (when
/// sessions keep failing), so a run always ends well within 180 s.
const MAX_RUN: Duration = Duration::from_secs(120);
/// Untimed sessions per client thread after each set-up.
const WARMUP_PER_CLIENT: usize = 2;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_test: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
        self_test: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The run's private directory under `.bench_run/` in the working
/// directory: spools, the daemon's cache and every recording live here,
/// never in a shared cache, and it is removed when the run ends.
struct RunDir(PathBuf);

impl RunDir {
    fn new() -> RunDir {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = PathBuf::from(".bench_run").join(format!("{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the run directory");
        RunDir(dir)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when no other run is using it.
        let _ = std::fs::remove_dir(".bench_run");
    }
}

/// What one session is sent to do.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// Upload or stream variant `n`.
    Variant(usize),
    /// The hostile upload.
    Hostile,
}

/// One session's outcome.
#[derive(Debug)]
struct Done {
    job: Job,
    answer: Result<SubmitOutcome, ClientError>,
    spans: Spans,
    /// Due time → verdict (open loop only).
    latency: f64,
    /// How late the generator started the session (open loop only).
    late: f64,
}

/// Counts of attempted and failed operations, and whether any result
/// was wrong (as opposed to refused or failed for the known fault).
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
    hostile_shard_errors: u64,
}

impl Tally {
    fn wrong(&mut self, what: &str, why: &str) {
        self.failed += 1;
        self.wrong += 1;
        eprintln!("FAILED {what}: {why}");
    }
}

struct Setup {
    inputs: Inputs,
    daemon: Daemon,
    /// Next variant no session has uploaded yet.
    next_fresh: usize,
}

impl Setup {
    /// What every evaluation of variant `n` must answer.
    fn expected(&self, n: usize) -> &Expected {
        &self.inputs.recordings[self.inputs.variants[n].recording].expected
    }
}

struct Bench<'a> {
    spec: &'a Spec,
    rng: Rng,
    clients: usize,
    workers: usize,
    /// Traced runs time each session's exchanges; untraced runs use the
    /// library clients.
    trace: bool,
}

/// Threads a live stream occupies on the client side: the reader and the
/// uploading writer.
fn threads_per_session(route: Route) -> usize {
    match route {
        Route::Upload => 1,
        Route::Stream => 2,
    }
}

impl Bench<'_> {
    fn fresh_per_block(&self, block: usize) -> usize {
        match self.spec.route {
            Route::Upload => block - self.spec.repeats_per_block,
            Route::Stream => 0,
        }
    }

    fn closed_sessions(&self) -> usize {
        self.clients * self.spec.closed_per_client
    }

    /// Variants local evaluations and live streams cycle through: every
    /// recording at every chunk size.
    fn local_pool(&self) -> usize {
        self.spec.recordings * inputs::CHUNK_SIZES.len()
    }

    /// Variants one round consumes beyond those already encoded.
    fn variants_per_round(&self) -> usize {
        self.fresh_per_block(self.spec.open_per_round)
            + self.fresh_per_block(self.closed_sessions())
    }

    fn set_up(&mut self, dir: &Path, seed: u64) -> Setup {
        let mut inputs = Inputs::build(self.spec, seed, &dir.join("inputs"));
        let warmup = self.clients * WARMUP_PER_CLIENT;
        inputs.ensure_variants(self.local_pool().max(warmup + self.variants_per_round()));
        let daemon = Daemon::start(
            DaemonConfig {
                workers: self.workers,
                shards: self.spec.shards,
            },
            dir,
        );
        let mut setup = Setup {
            inputs,
            daemon,
            next_fresh: 0,
        };
        // Warm-up: untimed sessions (their answers are still checked) and
        // one local evaluation.
        let jobs = self.jobs(&mut setup, warmup, 0);
        let mut tally = Tally::default();
        for done in self.closed_block(&setup, &jobs) {
            self.judge(&setup, &done, &mut tally);
        }
        let path = setup.inputs.variants[0].path.clone();
        verify_local(&path).expect("warm-up evaluation");
        assert_eq!(tally.failed, 0, "warm-up sessions failed");
        setup
    }

    /// The session jobs of one block: fresh variants, with a fixed number
    /// of seeded repeats of earlier uploads, and `hostile` hostile uploads
    /// at seeded positions.
    fn jobs(&mut self, setup: &mut Setup, n: usize, hostile: usize) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(n + hostile);
        // Repeats name bytes answered before this block, so their results
        // are already in the cache.
        let uploaded = setup.next_fresh;
        let repeats = if uploaded > 0 && n > 0 {
            self.spec.repeats_per_block
        } else {
            0
        };
        let stream_pool = self.local_pool();
        for _ in 0..n - repeats {
            let job = match self.spec.route {
                Route::Upload => {
                    setup.next_fresh += 1;
                    Job::Variant(setup.next_fresh - 1)
                }
                Route::Stream => Job::Variant(self.rng.range(0, stream_pool as u64 - 1) as usize),
            };
            jobs.push(job);
        }
        for _ in 0..repeats {
            let at = self.rng.range(0, jobs.len() as u64) as usize;
            let earlier = self.rng.range(0, uploaded as u64 - 1) as usize;
            jobs.insert(at, Job::Variant(earlier));
        }
        for _ in 0..hostile {
            let at = self.rng.range(0, jobs.len() as u64) as usize;
            jobs.insert(at, Job::Hostile);
        }
        jobs
    }

    fn run_job(
        &self,
        setup: &Setup,
        i: usize,
        job: Job,
        spans: &mut Spans,
    ) -> Result<SubmitOutcome, ClientError> {
        let path = match job {
            Job::Variant(n) => &setup.inputs.variants[n].path,
            Job::Hostile => setup.inputs.hostile.as_ref().expect("hostile input built"),
        };
        let mut file = std::fs::File::open(path).map_err(cg_trace::proto::ProtoError::Io)?;
        let tenant = if i.is_multiple_of(2) { "t0" } else { "t1" };
        let (addr, route) = (&setup.daemon.addr, self.spec.route);
        if self.trace {
            client::spanned_session(addr, tenant, route, &mut file, spans)
        } else {
            client::submit(addr, tenant, route, &mut file)
        }
    }

    /// Sends `jobs` from `threads` clients, each starting its next job as
    /// soon as its previous one is answered (or, in the open loop, when it
    /// falls due).
    fn block(&self, setup: &Setup, jobs: &[Job], threads: usize, rate: Option<f64>) -> Vec<Done> {
        let next = AtomicUsize::new(0);
        let done = Mutex::new(Vec::with_capacity(jobs.len()));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&job) = jobs.get(i) else { break };
                    let due = rate.map(|r| start + Duration::from_secs_f64(i as f64 / r));
                    let mut late = 0.0;
                    if let Some(due) = due {
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        } else {
                            late = (now - due).as_secs_f64();
                        }
                    }
                    let mut spans = Spans::default();
                    let answer = self.run_job(setup, i, job, &mut spans);
                    let latency = due.map_or(0.0, |d| d.elapsed().as_secs_f64());
                    done.lock()
                        .expect("no client thread panics holding the results")
                        .push(Done {
                            job,
                            answer,
                            spans,
                            latency,
                            late,
                        });
                });
            }
        });
        done.into_inner().expect("client threads finished")
    }

    fn closed_block(&self, setup: &Setup, jobs: &[Job]) -> Vec<Done> {
        self.block(setup, jobs, self.clients, None)
    }

    /// Judges one session's answer; returns whether it counts as a
    /// successful benign session.
    fn judge(&self, setup: &Setup, done: &Done, tally: &mut Tally) -> bool {
        tally.attempted += 1;
        match (done.job, &done.answer) {
            (
                Job::Hostile,
                Err(ClientError::Server {
                    class: ErrorClass::Replay,
                    ..
                }),
            ) => false,
            // The sharded route skips the liveness gate, so the hostile
            // handle reaches collector internals and the caught panic
            // answers ERROR(SHARD): a failed operation, not a wrong one.
            (
                Job::Hostile,
                Err(ClientError::Server {
                    class: ErrorClass::Shard,
                    ..
                }),
            ) => {
                tally.failed += 1;
                tally.hostile_shard_errors += 1;
                false
            }
            (Job::Hostile, other) => {
                tally.wrong(
                    "hostile session",
                    &format!("expected ERROR(replay), got {other:?}"),
                );
                false
            }
            (Job::Variant(_), Err(ClientError::Busy { reason })) => {
                tally.failed += 1;
                eprintln!("BUSY: {reason}");
                false
            }
            (Job::Variant(n), Err(e)) => {
                tally.wrong(&format!("session of variant {n}"), &e.to_string());
                false
            }
            (Job::Variant(n), Ok(outcome)) => {
                let events = outcome.events().unwrap_or(u64::MAX);
                match check_result(setup.expected(n), events, &outcome.cg_entries()) {
                    Ok(()) => true,
                    Err(why) => {
                        tally.wrong(&format!("session of variant {n}"), &why);
                        false
                    }
                }
            }
        }
    }

    /// One local whole-file evaluation of variant `n`, checked against
    /// `expected`; returns ns per event.
    fn verify_op(
        &self,
        setup: &Setup,
        n: usize,
        expected: &Expected,
        tally: &mut Tally,
    ) -> Option<f64> {
        tally.attempted += 1;
        let what = format!("local evaluation of variant {n}");
        match verify_local(&setup.inputs.variants[n].path) {
            Ok(local) => {
                match check_result(expected, local.events, &local.entries)
                    .and_then(|()| check_soundness(expected, &local.heap))
                {
                    Ok(()) => Some(local.seconds * 1e9 / local.events as f64),
                    Err(why) => {
                        tally.wrong(&what, &why);
                        None
                    }
                }
            }
            Err(e) => {
                tally.wrong(&what, &e.to_string());
                None
            }
        }
    }
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

fn median_or_nan(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        median(&mut values.to_vec())
    }
}

/// Linear-interpolated quantile (`values` is sorted in place).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn print_result(correct: bool, tally: &Tally, metrics: &[(String, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("daemon") {
        daemon::serve(&argv[1..]);
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--self-test]");
            std::process::exit(2);
        }
    };
    let Some(spec) = inputs::spec(&args.workload) else {
        let names: Vec<&str> = inputs::SPECS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (one of {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut bench = Bench {
        spec,
        rng: Rng::new(args.seed.wrapping_mul(31).wrapping_add(7)),
        clients: (nproc / threads_per_session(spec.route)).max(1),
        workers: nproc,
        trace: args.trace,
    };
    let run_dir = RunDir::new();
    eprintln!(
        "perfbench: {} seed {} ({nproc} hardware threads: {} daemon workers, {} client connections)",
        spec.name, args.seed, bench.workers, bench.clients
    );

    if args.self_test {
        let setup = bench.set_up(&run_dir.0.join("setup-0"), args.seed);
        let ok = self_test(&bench, &setup);
        setup.daemon.stop();
        drop(run_dir);
        std::process::exit(if ok { 0 } else { 1 });
    }

    // Set up several times; keep the last.
    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut set_up = |i: usize| {
        let started = Instant::now();
        let setup = bench.set_up(&run_dir.0.join(format!("setup-{i}")), args.seed);
        setup_times.push(started.elapsed().as_secs_f64());
        setup
    };
    let mut setup = set_up(0);
    for i in 1..SETUPS {
        std::mem::replace(&mut setup, set_up(i)).daemon.stop();
        let _ = std::fs::remove_dir_all(run_dir.0.join(format!("setup-{}", i - 1)));
    }
    let last_dir = run_dir.0.join(format!("setup-{}", SETUPS - 1));

    // Traced runs also need each recording uncompressed.
    let mut raw_paths = Vec::new();
    if args.trace {
        for (r, rec) in setup.inputs.recordings.iter().enumerate() {
            let path = last_dir.join(format!("raw-{r}.cgt"));
            encode(rec.trace.events(), &rec.name, rec.heap, 4096, false, &path);
            raw_paths.push(path);
        }
    }

    let mut tally = Tally::default();
    let mut verify_samples = Vec::new();
    let mut latencies = Vec::new();
    let mut lateness = Vec::new();
    // Per-round open-loop p50 and p90 and closed-loop rate.  A run reports
    // the median over its rounds, so a slow phase of the host that covers
    // a minority of a run's rounds does not move it.
    let mut round_p50s = Vec::new();
    let mut round_p90s = Vec::new();
    let mut round_rates = Vec::new();
    let mut all_spans: Vec<Spans> = Vec::new();
    let mut layers = Layers::default();
    let local_pool = bench.local_pool();
    let run_started = Instant::now();
    let mut round = 0usize;
    let seconds = Duration::from_secs(args.seconds);
    while round == 0
        || run_started.elapsed() < seconds
        || (round_p90s.len() < MIN_ROUNDS && run_started.elapsed() < MAX_RUN)
    {
        let needed = setup.next_fresh + bench.variants_per_round();
        setup.inputs.ensure_variants(needed);

        let round_verify = verify_samples.len();
        for i in 0..spec.verify_per_round {
            let n = (round * spec.verify_per_round + i) % local_pool;
            if let Some(ns) = bench.verify_op(&setup, n, setup.expected(n), &mut tally) {
                verify_samples.push(ns);
            }
        }

        let round_open = latencies.len();
        let jobs = bench.jobs(&mut setup, spec.open_per_round, 0);
        for done in bench.block(&setup, &jobs, bench.clients, Some(spec.rate_per_s)) {
            lateness.push(done.late);
            if bench.judge(&setup, &done, &mut tally) {
                latencies.push(done.latency);
            }
            all_spans.push(done.spans);
        }
        let mut round_p90 = f64::NAN;
        if latencies.len() > round_open {
            let round_latencies = &mut latencies[round_open..];
            round_p50s.push(quantile(round_latencies, 0.5));
            round_p90 = quantile(round_latencies, 0.9);
            round_p90s.push(round_p90);
        }

        let jobs = bench.jobs(&mut setup, bench.closed_sessions(), spec.hostile_per_round);
        let started = Instant::now();
        let finished = bench.closed_block(&setup, &jobs);
        round_rates.push(finished.len() as f64 / started.elapsed().as_secs_f64());
        eprintln!(
            "round {round} at {:.1} s: verify median {:.0} ns/event, open p50 {:.1} ms, p90 {:.1} ms, closed {:.1}/s",
            run_started.elapsed().as_secs_f64(),
            median_or_nan(&verify_samples[round_verify..]),
            median_or_nan(&latencies[round_open..]) * 1e3,
            round_p90 * 1e3,
            round_rates[round]
        );
        for done in finished {
            bench.judge(&setup, &done, &mut tally);
            all_spans.push(done.spans);
        }

        if args.trace {
            let r = round % spec.recordings;
            let scratch = last_dir.join("partition");
            std::fs::create_dir_all(&scratch).expect("partition scratch dir");
            if let Err(why) = layers::probe(
                &setup.inputs.recordings[r],
                &setup.inputs.variants[r].path,
                &raw_paths[r],
                &scratch,
                &mut layers,
            ) {
                tally.wrong("layer probe", &why);
            }
        }
        round += 1;
    }

    let peak_rss = setup.daemon.peak_rss_mib();
    let cache_hits = client::metric(&setup.daemon.addr, "cgtd.cache_hits");
    let busy = client::metric(&setup.daemon.addr, "cgtd.busy_rejected");
    setup.daemon.stop();

    if round_p90s.len() < MIN_ROUNDS || verify_samples.is_empty() {
        eprintln!(
            "perfbench: too few successful operations to measure ({} rounds with open-loop sessions, {} local evaluations)",
            round_p90s.len(),
            verify_samples.len()
        );
        drop(run_dir);
        std::process::exit(1);
    }
    let late_p90_ms = quantile(&mut lateness, 0.9) * 1e3;
    let verify = median(&mut verify_samples);
    eprintln!(
        "perfbench: {round} rounds in {:.1} s; {} open-loop samples, generator late p90 {late_p90_ms:.2} ms; \
         {} hostile sessions answered ERROR(SHARD)",
        run_started.elapsed().as_secs_f64(),
        latencies.len(),
        tally.hostile_shard_errors
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.push(("setup_s".into(), median(&mut setup_times), "s"));
        metrics.push(("verify_ns_per_event".into(), verify, "ns"));
        metrics.push(("submit_p50_ms".into(), median(&mut round_p50s) * 1e3, "ms"));
        metrics.push(("submit_p90_ms".into(), median(&mut round_p90s) * 1e3, "ms"));
        metrics.push(("sessions_per_s".into(), median(&mut round_rates), "1/s"));
        metrics.push(("peak_rss_mib".into(), peak_rss, "MiB"));
    } else {
        for (name, samples) in layers.samples.iter_mut() {
            let unit = "ns";
            let value = median(samples);
            if name == "trace.verify_ns_per_event" {
                metrics.push(("trace.overhead_ns_per_event".into(), value - verify, unit));
            }
            metrics.push((name.clone(), value, unit));
        }
        metrics.push(("trace.untraced_verify_ns_per_event".into(), verify, "ns"));
        // Decode plus the per-kind spans (less the clock reads inside
        // them) should account for the untraced evaluation within the
        // tracing overhead.
        let traced = median(&mut layers.samples["trace.verify_ns_per_event"].clone());
        let accounted = median(&mut layers.samples["trace.accounted_ns_per_event"].clone());
        let (gap, overhead) = ((accounted - verify).abs(), traced - verify);
        let within = gap <= overhead;
        eprintln!(
            "perfbench: decode + spans account for {accounted:.0} of {verify:.0} untraced ns/event: \
             gap {gap:.0} {} overhead {overhead:.0}",
            if within { "<=" } else { ">" }
        );
        metrics.push(("trace.accounting_gap_ns_per_event".into(), gap, "ns"));
        metrics.push((
            "trace.accounted_within_overhead".into(),
            f64::from(u8::from(within)),
            "bool",
        ));
        for (kind, name) in KINDS {
            metrics.push((
                format!("replay.apply_ns.{name}"),
                layers.apply_mean_ns(kind),
                "ns",
            ));
        }
        metrics.push((
            "replay.allocate_share".into(),
            layers.allocate_share_pct(),
            "%",
        ));
        let per_kevent = |key: &str| -> f64 {
            let mut values: Vec<f64> = setup
                .inputs
                .recordings
                .iter()
                .map(|rec| {
                    let count = entry(&rec.expected.entries, key).unwrap_or(0);
                    count as f64 * 1e3 / rec.expected.events as f64
                })
                .collect();
            median(&mut values)
        };
        metrics.push((
            "core.unions_per_kevent".into(),
            per_kevent("unions"),
            "1/kevent",
        ));
        metrics.push((
            "core.contaminations_per_kevent".into(),
            per_kevent("contaminations"),
            "1/kevent",
        ));
        // Span medians over every measured session, in ms (0 when the
        // route has no such span).
        let ms = |mut spans: Vec<f64>| -> f64 {
            if spans.is_empty() {
                0.0
            } else {
                median(&mut spans) * 1e3
            }
        };
        let spans = &all_spans;
        let accept = ms(spans.iter().map(|s| s.accept_wait).collect());
        let upload = ms(spans.iter().map(|s| s.upload).collect());
        let verdict = ms(spans.iter().map(|s| s.verdict_wait).collect());
        let gaps = ms(spans.iter().flat_map(|s| s.progress_gaps.clone()).collect());
        metrics.push(("proto.accept_wait_ms".into(), accept, "ms"));
        metrics.push(("proto.upload_ms".into(), upload, "ms"));
        metrics.push(("proto.verdict_wait_ms".into(), verdict, "ms"));
        metrics.push(("proto.progress_gap_ms".into(), gaps, "ms"));
        match (cache_hits, busy) {
            (Ok(hits), Ok(busy)) => {
                metrics.push(("server.cache_hits".into(), hits as f64, "count"));
                metrics.push(("server.busy_rejected".into(), busy as f64, "count"));
            }
            (hits, busy) => {
                tally.wrong("metrics scrape", &format!("{hits:?} {busy:?}"));
            }
        }
        metrics.push(("load.generator_late_p90_ms".into(), late_p90_ms, "ms"));
    }
    drop(run_dir);
    print_result(tally.wrong == 0, &tally, &metrics);
}

/// Shows that the checks fire: a local evaluation judged against one
/// corrupted expected counter, and a served stats text with one `cg.*`
/// value changed, must each be reported as a failed operation, while the
/// same operations untouched pass.
fn self_test(bench: &Bench, setup: &Setup) -> bool {
    let expected = setup.expected(0);
    let mut corrupted = expected.clone();
    corrupted.allocations += 1;

    let mut spans = Spans::default();
    let job = Job::Variant(0);
    let served = match bench.run_job(setup, 0, job, &mut spans) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("self-test: the served session failed: {e}");
            return false;
        }
    };
    let mut tampered = served.clone();
    let line = served
        .text
        .lines()
        .find(|l| l.starts_with("cg.contaminations "))
        .unwrap_or_default();
    let value: u64 = line
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    tampered.text = served
        .text
        .replace(line, &format!("cg.contaminations {}", value + 1));
    let done = |outcome: &SubmitOutcome| Done {
        job,
        answer: Ok(outcome.clone()),
        spans: Spans::default(),
        latency: 0.0,
        late: 0.0,
    };

    let mut results = Vec::new();
    let mut case = |what: &str, want_failed: bool, run: &mut dyn FnMut(&mut Tally)| {
        let mut tally = Tally::default();
        run(&mut tally);
        let failed = tally.failed == 1;
        eprintln!(
            "self-test: {what}: {}",
            if failed { "reported failed" } else { "passed" }
        );
        results.push(failed == want_failed);
    };
    case("clean local evaluation", false, &mut |t| {
        bench.verify_op(setup, 0, expected, t);
    });
    case(
        "local evaluation vs corrupted objects_created",
        true,
        &mut |t| {
            bench.verify_op(setup, 0, &corrupted, t);
        },
    );
    case("clean served result", false, &mut |t| {
        bench.judge(setup, &done(&served), t);
    });
    case(
        "served text with cg.contaminations changed",
        true,
        &mut |t| {
            bench.judge(setup, &done(&tampered), t);
        },
    );
    let ok = results.iter().all(|&r| r);
    println!("{{\"self_test\": {ok}, \"cases\": {}}}", results.len());
    ok
}
