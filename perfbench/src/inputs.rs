//! Workload definitions and the inputs each run builds from its seed:
//! recordings of seeded profile perturbations, their `.cgt` encodings,
//! the independent expectations every result is checked against, and the
//! one seed-independent hostile upload.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cg_baseline::trace_live;
use cg_heap::{Handle, HeapConfig};
use cg_trace::footer::{canonical_collector, canonical_heap, cg_section};
use cg_trace::{
    record, replay_path_governed, EvalError, EventKind, GcEvent, Governor, Trace, TraceMeta,
    TraceWriter,
};
use cg_vm::{NoopCollector, VmConfig};
use cg_workloads::{Profile, Size, Workload};

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_CAFE_F00D_D00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// How a workload's sessions reach the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Whole-file `SUBMIT` upload: spooled, memoized, single- or
    /// multi-shard evaluation.
    Upload,
    /// Live `STREAM` session: no spool, no cache, chunk-by-chunk
    /// evaluation with `PROGRESS` frames.
    Stream,
}

/// One workload: its inputs, the daemon it talks to and the make-up of
/// one round of operations.  Every round attempts the same operations,
/// so the failed share of a run never depends on its length or seed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub route: Route,
    /// The unperturbed profile.
    pub base: fn() -> Profile,
    /// Seeded perturbation: iterations are drawn from `base ± jitter`.
    pub iteration_jitter: u64,
    /// Distinct recordings per run.
    pub recordings: usize,
    /// The tenant `shards` grant of the daemon's default budget.
    pub shards: u64,
    /// Open-loop arrival rate, sessions per second, evenly spaced.
    pub rate_per_s: f64,
    /// Local whole-file evaluations per round.
    pub verify_per_round: usize,
    /// Open-loop sessions per round.
    pub open_per_round: usize,
    /// Closed-loop sessions per client per round.
    pub closed_per_client: usize,
    /// Of each session block, this many repeat bytes uploaded earlier in
    /// the run (served from the result cache).
    pub repeats_per_block: usize,
    /// Hostile uploads per round, sent in the closed loop.
    pub hostile_per_round: usize,
}

fn jack() -> Profile {
    let mut p = Workload::by_name("jack")
        .expect("jack is a built-in workload")
        .profile(Size::S1);
    p.iterations = 250;
    p
}

fn mtrt() -> Profile {
    let mut p = Workload::by_name("mtrt")
        .expect("mtrt is a built-in workload")
        .profile(Size::S1);
    p.iterations = 1200;
    p
}

/// The `serving_shards` bench's javac-style profile: a shared AST batch
/// plus compile temporaries over 8 VM threads, so both shards have work.
fn javac_style() -> Profile {
    Profile {
        name: "javac_style".to_string(),
        description: "javac-style: shared AST batch + compile temporaries over 8 threads"
            .to_string(),
        static_setup: 1_000,
        interned: 32,
        iterations: 800,
        leaf_temps: 3,
        chained_temps: 4,
        static_touching_temps: 2,
        returned_temps: 1,
        escape_depth: 1,
        leaked_per_iteration: 0,
        compute_per_iteration: 8,
        shared_objects: 2_000,
        worker_threads: 7,
    }
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "alloc-upload",
        route: Route::Upload,
        base: jack,
        iteration_jitter: 10,
        recordings: 4,
        shards: 1,
        rate_per_s: 7.0,
        verify_per_round: 4,
        open_per_round: 10,
        closed_per_client: 3,
        repeats_per_block: 1,
        hostile_per_round: 0,
    },
    Spec {
        name: "decode-stream",
        route: Route::Stream,
        base: mtrt,
        iteration_jitter: 50,
        recordings: 4,
        shards: 1,
        rate_per_s: 7.0,
        verify_per_round: 4,
        open_per_round: 12,
        closed_per_client: 4,
        repeats_per_block: 0,
        hostile_per_round: 0,
    },
    Spec {
        name: "shard-upload",
        route: Route::Upload,
        base: javac_style,
        iteration_jitter: 30,
        recordings: 4,
        shards: 2,
        rate_per_s: 4.0,
        verify_per_round: 4,
        open_per_round: 10,
        closed_per_client: 3,
        repeats_per_block: 1,
        hostile_per_round: 1,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What every evaluation of one recording must answer, computed apart
/// from the evaluation under test.
#[derive(Debug, Clone)]
pub struct Expected {
    /// The recording's length.
    pub events: u64,
    /// `Allocate` events counted in the in-memory recording.
    pub allocations: u64,
    /// Handles precisely reachable from the recording run's final roots
    /// (`cg_baseline::trace_live` over the `NoopCollector` heap).
    pub reachable: Vec<Handle>,
    /// The local whole-file result (`cg.*` entries), which every route and
    /// encoding must reproduce.
    pub entries: Vec<(String, u64)>,
}

/// One recorded profile perturbation.
#[derive(Debug)]
pub struct Recording {
    pub name: String,
    pub trace: Trace,
    pub heap: HeapConfig,
    pub expected: Expected,
    /// Wall time of the recording run (the `cg-vm` interpreter layer).
    pub record_seconds: f64,
}

/// One encoded upload: a recording written at one chunk size under a
/// unique name, so no two variants share bytes.
#[derive(Debug, Clone)]
pub struct Variant {
    pub path: PathBuf,
    pub recording: usize,
}

/// Chunk sizes the variants cycle through (events per chunk).
pub const CHUNK_SIZES: [usize; 4] = [2048, 3072, 4096, 6144];

/// Records `profile` under the `NoopCollector` and derives the
/// independent expectations from the recording alone.
pub fn record_profile(profile: &Profile) -> Recording {
    let heap = canonical_heap();
    let started = Instant::now();
    let (trace, _, vm) = record(
        profile.name.clone(),
        cg_workloads::synthesize(profile),
        VmConfig::default().with_heap(heap),
        NoopCollector::new(),
    )
    .expect("recording a built-in profile succeeds");
    let record_seconds = started.elapsed().as_secs_f64();
    let live = trace_live(&vm.build_roots(), vm.heap());
    let reachable = live
        .iter()
        .enumerate()
        .filter(|(_, &reached)| reached)
        .map(|(i, _)| Handle::from_index(i as u32))
        .collect();
    let allocations = trace
        .events()
        .iter()
        .filter(|e| e.kind() == EventKind::Allocate)
        .count() as u64;
    Recording {
        name: profile.name.clone(),
        expected: Expected {
            events: trace.len() as u64,
            allocations,
            reachable,
            entries: Vec::new(),
        },
        trace,
        heap,
        record_seconds,
    }
}

/// Writes `events` as a `.cgt` file at one chunk size, compressed or raw.
pub fn encode(
    events: &[GcEvent],
    name: &str,
    heap: HeapConfig,
    chunk_events: usize,
    compress: bool,
    path: &Path,
) {
    let meta = TraceMeta {
        name: name.to_string(),
        heap: Some(heap),
        declared_events: Some(events.len() as u64),
        ..TraceMeta::default()
    };
    let file = File::create(path).expect("create variant file");
    let mut writer = TraceWriter::with_chunk_events(BufWriter::new(file), &meta, chunk_events)
        .expect("write trace header");
    writer.set_compression(compress);
    for event in events {
        writer.push(event).expect("encode event");
    }
    let (w, _) = writer.finish().expect("finish trace");
    w.into_inner().expect("flush variant file");
}

/// What one local evaluation answered.
#[derive(Debug)]
pub struct Local {
    pub events: u64,
    /// The canonical `cg.*` entries.
    pub entries: Vec<(String, u64)>,
    /// The shadow heap the replay left behind.
    pub heap: cg_heap::Heap,
    /// Wall time of the evaluation alone.
    pub seconds: f64,
}

/// The local whole-file evaluation, exactly as `cgt verify` runs it:
/// open, CRC-check and decode, validate, canonical replay.
pub fn verify_local(path: &Path) -> Result<Local, EvalError> {
    let started = Instant::now();
    let evaluated =
        replay_path_governed(path, None, canonical_collector(), &Governor::unlimited())?;
    let seconds = started.elapsed().as_secs_f64();
    let mut collector = evaluated.replayed.collector;
    let breakdown = collector.breakdown();
    Ok(Local {
        events: evaluated.replayed.outcome.events_replayed as u64,
        entries: cg_section(collector.stats(), &breakdown).entries,
        heap: evaluated.replayed.heap,
        seconds,
    })
}

/// A run's inputs.
#[derive(Debug)]
pub struct Inputs {
    pub recordings: Vec<Recording>,
    /// Upload variants, in the order sessions consume them.
    pub variants: Vec<Variant>,
    /// The hostile upload (seed-independent), for workloads that send one.
    pub hostile: Option<PathBuf>,
    dir: PathBuf,
    /// Seeded chunk-size rotation offset.
    chunk_offset: usize,
}

impl Inputs {
    /// Records the workload's seeded perturbations and computes every
    /// expectation.
    pub fn build(spec: &Spec, seed: u64, dir: &Path) -> Inputs {
        std::fs::create_dir_all(dir).expect("create input dir");
        let mut rng = Rng::new(seed);
        let base = (spec.base)();
        let mut recordings = Vec::with_capacity(spec.recordings);
        for r in 0..spec.recordings {
            let mut profile = base.clone();
            profile.iterations = rng.range(
                base.iterations - spec.iteration_jitter,
                base.iterations + spec.iteration_jitter,
            );
            profile.name = format!("{}-s{seed}-r{r}", spec.name);
            recordings.push(record_profile(&profile));
        }
        let mut inputs = Inputs {
            recordings,
            variants: Vec::new(),
            hostile: None,
            dir: dir.to_path_buf(),
            chunk_offset: rng.range(0, CHUNK_SIZES.len() as u64 - 1) as usize,
        };
        // The first variant of each recording gives the local whole-file
        // result every route must reproduce.
        inputs.ensure_variants(spec.recordings);
        for r in 0..spec.recordings {
            let path = inputs.variants[r].path.clone();
            inputs.recordings[r].expected.entries = verify_local(&path)
                .expect("a recorded trace replays cleanly")
                .entries;
        }
        if spec.hostile_per_round > 0 {
            inputs.hostile = Some(build_hostile(spec, dir));
        }
        inputs
    }

    /// Encodes variants until there are at least `n`.
    pub fn ensure_variants(&mut self, n: usize) {
        while self.variants.len() < n {
            let k = self.variants.len();
            let recording = k % self.recordings.len();
            let chunk =
                CHUNK_SIZES[(k / self.recordings.len() + self.chunk_offset) % CHUNK_SIZES.len()];
            let rec = &self.recordings[recording];
            let name = format!("{}-v{k}", rec.name);
            let path = self.dir.join(format!("{name}.cgt"));
            encode(rec.trace.events(), &name, rec.heap, chunk, true, &path);
            self.variants.push(Variant { path, recording });
        }
    }
}

/// The hostile upload: a fixed recording of the base profile (so it does
/// not depend on the seed) with one `ReferenceStore` target rewritten to a
/// handle that was never allocated.  The whole-file route answers it with
/// a structured `Replay` error; the check confirms that before use.
fn build_hostile(spec: &Spec, dir: &Path) -> PathBuf {
    let mut profile = (spec.base)();
    profile.name = format!("{}-hostile", spec.name);
    let rec = record_profile(&profile);
    let events = rec.trace.events();
    let minted = rec.expected.allocations as u32;
    let at = events
        .iter()
        .enumerate()
        .skip(events.len() / 2)
        .find(|(_, e)| e.kind() == EventKind::ReferenceStore)
        .map(|(i, _)| i)
        .expect("the profile has reference stores");
    let mut mutated = events.to_vec();
    if let GcEvent::ReferenceStore { target, .. } = &mut mutated[at] {
        *target = Handle::from_index(minted + 4_099);
    }
    let path = dir.join(format!("{}.cgt", profile.name));
    encode(&mutated, &profile.name, rec.heap, 4096, true, &path);
    match verify_local(&path) {
        Err(EvalError::Replay(_)) => path,
        other => panic!(
            "the hostile upload must fail whole-file replay with a Replay error, got {:?}",
            other.map(|local| local.events)
        ),
    }
}
