//! The traced run's per-layer probes.  Each times calls into one layer
//! from the benchmark's own code: decode, validation, the shadow heap,
//! each collector hook by event kind, partitioning and the two
//! evaluators.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use cg_heap::Heap;
use cg_trace::footer::{canonical_collector, canonical_config, cg_section};
use cg_trace::{
    apply_event, open_trace, parallel_eval_streaming_governed, partition_path_streaming,
    validate_event_handles, validate_event_liveness, EventKind, GcEvent, Governor, ReplayOutcome,
};
use cg_vm::NoopCollector;

use crate::checks::check_result;
use crate::inputs::{verify_local, Recording};

/// The event kinds whose `apply_event` time is reported, with their
/// metric names.
pub const KINDS: [(EventKind, &str); 9] = [
    (EventKind::Allocate, "allocate"),
    (EventKind::FramePop, "frame_pop"),
    (EventKind::ReferenceStore, "reference_store"),
    (EventKind::SlotWrite, "slot_write"),
    (EventKind::ObjectAccess, "object_access"),
    (EventKind::ReturnValue, "return_value"),
    (EventKind::FramePush, "frame_push"),
    (EventKind::StaticStore, "static_store"),
    (EventKind::ProgramEnd, "program_end"),
];

/// Samples of every per-layer quantity, one per probe.
#[derive(Debug, Default)]
pub struct Layers {
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-kind span totals (ns) and counts across all probes.
    kind_ns: [f64; EventKind::ALL.len()],
    kind_count: [u64; EventKind::ALL.len()],
}

impl Layers {
    fn push(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    /// Mean `apply_event` ns of one kind over every probe.
    pub fn apply_mean_ns(&self, kind: EventKind) -> f64 {
        let i = kind as usize;
        if self.kind_count[i] == 0 {
            0.0
        } else {
            self.kind_ns[i] / self.kind_count[i] as f64
        }
    }

    /// Allocate's share of all `apply_event` span time, in percent.
    pub fn allocate_share_pct(&self) -> f64 {
        let total: f64 = self.kind_ns.iter().sum();
        100.0 * self.kind_ns[EventKind::Allocate as usize] / total
    }
}

/// Decodes a whole `.cgt` file, returning ns per event.
fn decode_ns_per_event(path: &Path) -> (f64, f64) {
    let started = Instant::now();
    let mut reader = open_trace(path).expect("open an encoded variant");
    let mut events = 0u64;
    while let Some(event) = reader.next_event().expect("decode an encoded variant") {
        black_box(&event);
        events += 1;
    }
    let ns = started.elapsed().as_nanos() as f64;
    (ns / events as f64, ns)
}

/// Replays in memory under the `NoopCollector`, optionally validating
/// every event a second time; returns ns per event.
fn noop_replay_ns_per_event(rec: &Recording, extra_validation: bool) -> f64 {
    let events = rec.trace.events();
    let mut heap = Heap::new(rec.heap);
    let mut collector = NoopCollector::new();
    let mut outcome = ReplayOutcome::default();
    let started = Instant::now();
    for event in events {
        if extra_validation {
            black_box(validate_event_handles(event, &heap)).expect("valid handles");
            black_box(validate_event_liveness(event, &heap)).expect("live handles");
        }
        apply_event(event, &mut heap, &mut collector, &mut outcome).expect("noop replay");
    }
    let ns = started.elapsed().as_nanos() as f64;
    black_box(outcome);
    ns / events.len() as f64
}

/// Replays in memory under the canonical collector with one span per
/// event; returns the loop's wall ns, the spans' total ns and the total
/// ns of as many empty spans (what the clock reads alone put inside the
/// spans).
fn spanned_replay(rec: &Recording, layers: &mut Layers) -> (f64, f64, f64) {
    let events: &[GcEvent] = rec.trace.events();
    let mut heap = Heap::new(rec.heap);
    let mut collector = canonical_collector();
    let mut outcome = ReplayOutcome::default();
    let mut spans = 0.0;
    let started = Instant::now();
    for event in events {
        let t = Instant::now();
        apply_event(event, &mut heap, &mut collector, &mut outcome).expect("canonical replay");
        let ns = t.elapsed().as_nanos() as f64;
        let kind = event.kind() as usize;
        layers.kind_ns[kind] += ns;
        layers.kind_count[kind] += 1;
        spans += ns;
    }
    let wall = started.elapsed().as_nanos() as f64;
    black_box(collector.stats());
    let mut empty = 0.0;
    for event in events {
        let t = Instant::now();
        black_box(event);
        empty += t.elapsed().as_nanos() as f64;
    }
    (wall, spans, empty)
}

/// One probe of every local layer on one recording.  `encoded` is the
/// recording as uploaded (compressed), `raw` the same trace uncompressed;
/// `scratch` is an empty directory for the partition's shard files.
pub fn probe(
    rec: &Recording,
    encoded: &Path,
    raw: &Path,
    scratch: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let events = rec.expected.events as f64;
    layers.push("vm.record_ns_per_event", rec.record_seconds * 1e9 / events);

    let (decode, decode_ns) = decode_ns_per_event(encoded);
    layers.push("io.decode_ns_per_event", decode);
    layers.push("io.decode_raw_ns_per_event", decode_ns_per_event(raw).0);

    let plain = noop_replay_ns_per_event(rec, false);
    let doubled = noop_replay_ns_per_event(rec, true);
    layers.push("replay.noop_ns_per_event", plain);
    layers.push("replay.validate_ns_per_event", doubled - plain);

    let (wall, spans, empty) = spanned_replay(rec, layers);
    layers.push("trace.verify_ns_per_event", (decode_ns + wall) / events);
    layers.push("trace.span_cost_ns", empty / events);
    layers.push(
        "trace.accounted_ns_per_event",
        (decode_ns + spans - empty) / events,
    );

    let started = Instant::now();
    let parts = partition_path_streaming(encoded, 2, scratch).map_err(|e| e.to_string())?;
    layers.push(
        "partition.ns_per_event",
        started.elapsed().as_nanos() as f64 / events,
    );
    let started = Instant::now();
    let sharded = parallel_eval_streaming_governed(
        &parts.paths,
        rec.heap,
        canonical_config(),
        &Governor::unlimited(),
    )
    .map_err(|e| format!("sharded evaluation: {e:?}"))?;
    layers.push(
        "eval.sharded_ns_per_event",
        started.elapsed().as_nanos() as f64 / events,
    );
    for path in &parts.paths {
        let _ = std::fs::remove_file(path);
    }
    let entries = cg_section(&sharded.stats, &sharded.breakdown).entries;
    check_result(&rec.expected, sharded.events_replayed as u64, &entries)?;

    let single = verify_local(encoded).map_err(|e| e.to_string())?;
    layers.push("eval.single_ns_per_event", single.seconds * 1e9 / events);
    check_result(&rec.expected, single.events, &single.entries)
}
