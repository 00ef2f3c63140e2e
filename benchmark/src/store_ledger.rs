//! The store layer, called directly: `DesignStore::{open, append_*,
//! compact}` on a copy of the log a `serve_durable` cycle produced.

use crate::metrics::Values;
use crate::stats::median;
use qwm::store::design::STORE_FILE;
use qwm::store::DesignStore;
use std::path::Path;
use std::time::Instant;

const SNAPSHOTS: usize = 20;
const EDITS: usize = 200;

/// Measures on a copy, so the cycle's own log stays as the server left
/// it (torn tail and all) for anyone inspecting a failed run.
pub fn measure(cycle_store: &Path, run_dir: &Path, out: &mut Values) -> Result<(), String> {
    let dir = crate::serve::fresh_dir(run_dir, "store-ledger")?;
    std::fs::copy(cycle_store.join(STORE_FILE), dir.join(STORE_FILE))
        .map_err(|e| format!("copy store log: {e}"))?;
    let err = |what: &str, e: qwm::store::StoreError| format!("store ledger {what}: {e}");

    let t0 = Instant::now();
    let (mut store, recovered) = DesignStore::open(&dir).map_err(|e| err("open", e))?;
    out.set("store.open_ms", t0.elapsed().as_secs_f64() * 1e3, 1);
    let session = recovered
        .sessions
        .first()
        .ok_or("store ledger: the cycle's log holds no session")?;

    let bytes_before = store.status().bytes;
    let mut us = Vec::with_capacity(SNAPSHOTS);
    for _ in 0..SNAPSHOTS {
        let t0 = Instant::now();
        store
            .append_snapshot(&session.snapshot)
            .map_err(|e| err("append_snapshot", e))?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let per_snapshot = (store.status().bytes - bytes_before) / SNAPSHOTS as u64;
    out.set(
        "store.append_snapshot_us_p50",
        median(&us),
        SNAPSHOTS as u64,
    );
    out.set(
        "store.bytes_per_snapshot",
        per_snapshot as f64,
        SNAPSHOTS as u64,
    );

    let mut us = Vec::with_capacity(EDITS);
    for _ in 0..EDITS {
        let t0 = Instant::now();
        store
            .append_edits(&session.snapshot.sid, "resize MN0 7.5e-7\n")
            .map_err(|e| err("append_edits", e))?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out.set("store.append_edits_us_p50", median(&us), EDITS as u64);

    let t0 = Instant::now();
    store.compact().map_err(|e| err("compact", e))?;
    out.set("store.compact_ms", t0.elapsed().as_secs_f64() * 1e3, 1);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
