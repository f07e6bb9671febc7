//! The output checks.  Each compares a result against an expectation the
//! evaluation under test did not produce: counts taken from the in-memory
//! recording, reachability traced by `cg_baseline::trace_live`, and the
//! local whole-file result for route and encoding identity.

use cg_heap::Heap;

use crate::inputs::Expected;

/// The value of `cg.<name>` in a result's entries.
pub fn entry(entries: &[(String, u64)], name: &str) -> Result<u64, String> {
    entries
        .iter()
        .find(|(key, _)| key == name)
        .map(|(_, value)| *value)
        .ok_or_else(|| format!("result has no cg.{name}"))
}

/// Checks one result from any route: the event count, the allocation
/// count, conservation, and identity with the local whole-file result.
pub fn check_result(
    expected: &Expected,
    events: u64,
    entries: &[(String, u64)],
) -> Result<(), String> {
    if events != expected.events {
        return Err(format!(
            "events {events}, but the recording holds {}",
            expected.events
        ));
    }
    let created = entry(entries, "objects_created")?;
    if created != expected.allocations {
        return Err(format!(
            "objects_created {created}, but the recording holds {} Allocate events",
            expected.allocations
        ));
    }
    let collected = entry(entries, "objects_collected")?;
    let reachable = expected.reachable.len() as u64;
    if collected > created.saturating_sub(reachable) {
        return Err(format!(
            "objects_collected {collected} exceeds objects_created {created} minus \
             {reachable} reachable at the end"
        ));
    }
    if entries != expected.entries.as_slice() {
        let diff = entries
            .iter()
            .zip(&expected.entries)
            .find(|(got, want)| got != want)
            .map(|(got, want)| format!("cg.{} {} (local whole-file: {})", got.0, got.1, want.1))
            .unwrap_or_else(|| {
                format!(
                    "{} entries (local whole-file: {})",
                    entries.len(),
                    expected.entries.len()
                )
            });
        return Err(format!(
            "result differs from the local whole-file result: {diff}"
        ));
    }
    Ok(())
}

/// The paper's soundness invariant on the shadow heap a canonical replay
/// left behind: every precisely reachable object is still live.
pub fn check_soundness(expected: &Expected, heap: &Heap) -> Result<(), String> {
    match expected.reachable.iter().find(|h| !heap.is_live(**h)) {
        Some(freed) => Err(format!("reachable object {freed} was freed")),
        None => Ok(()),
    }
}
