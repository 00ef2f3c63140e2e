//! Commit-book snapshots: the public, owned image of the engine's
//! incremental state, for persistence (`qwm-store`) and warm restarts.
//!
//! The incremental flow's bitwise contract (see [`crate::incremental`])
//! makes the commit books *portable*: an engine rebuilt over the same
//! netlist and models, seeded with an exported book, continues exactly
//! where the exporting engine stopped — its next `run_incremental` is
//! an incremental run (not a cold full run) and its reports are
//! bitwise-identical to a never-restarted engine's. Arrivals and slews
//! are carried as `f64` and must round-trip through `f64::to_bits`
//! when serialized; any rounding voids the contract.
//!
//! Import validates shape (book length = net count, predecessor stage
//! indices in range, finite slews) but deliberately does **not** touch
//! the dirty sets: edits applied after an import stay dirty, which is
//! exactly what restore-then-replay needs.

use crate::engine::{Book, StaEngine, NO_PRED};
use crate::incremental::{Committed, Slot};
use qwm_circuit::waveform::TransitionKind;
use qwm_device::corner::intern;
use qwm_num::{NumError, Result};

/// One net's committed `(arrival, slew, committing stage)`; `None` for
/// nets never committed (rails, floating nets).
pub type NetEntry = Option<(f64, f64, Option<usize>)>;

/// Owned snapshot of the single-corner commit book
/// ([`StaEngine::export_committed`] /
/// [`StaEngine::import_committed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CommitSnapshot {
    /// Name of the evaluator that produced the book. An engine only
    /// continues incrementally under the same evaluator name; a
    /// different one forces a full re-run, same as live.
    pub evaluator: String,
    /// Seed slew the book was computed at \[s\].
    pub input_slew: f64,
    /// Per-net commit entries, indexed by `NetId` order.
    pub book: Vec<NetEntry>,
}

/// Owned snapshot of the per-corner commit books
/// ([`StaEngine::export_committed_corners`] /
/// [`StaEngine::import_committed_corners`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CornerCommitSnapshot {
    /// Corner names, in sweep order.
    pub corners: Vec<String>,
    /// Evaluator name per corner (same order as `corners`).
    pub evaluators: Vec<String>,
    /// Seed slew the books were computed at \[s\].
    pub input_slew: f64,
    /// One per-net book per corner (same order as `corners`).
    pub books: Vec<Vec<NetEntry>>,
}

fn export_book(book: &Book) -> Vec<NetEntry> {
    book.iter()
        .map(|e| e.map(|(a, s, pred)| (a, s, (pred != NO_PRED).then_some(pred))))
        .collect()
}

fn import_book(
    context: &'static str,
    book: Vec<NetEntry>,
    nets: usize,
    stages: usize,
) -> Result<Book> {
    if book.len() != nets {
        return Err(NumError::InvalidInput {
            context,
            detail: format!("book covers {} nets but the netlist has {nets}", book.len()),
        });
    }
    book.into_iter()
        .map(|e| {
            Ok(match e {
                None => None,
                Some((a, s, pred)) => {
                    if !a.is_finite() || !s.is_finite() {
                        return Err(NumError::InvalidInput {
                            context,
                            detail: format!("non-finite commit entry ({a}, {s})"),
                        });
                    }
                    let pred = match pred {
                        None => NO_PRED,
                        Some(p) if p < stages => p,
                        Some(p) => {
                            return Err(NumError::InvalidInput {
                                context,
                                detail: format!(
                                    "committing stage {p} out of range ({stages} stages)"
                                ),
                            });
                        }
                    };
                    Some((a, s, pred))
                }
            })
        })
        .collect()
}

impl<'m> StaEngine<'m> {
    /// The transition direction this engine analyzes.
    pub fn direction(&self) -> TransitionKind {
        self.direction
    }

    /// The committed books of one flow as an owned snapshot.
    fn export(&self, slot: Slot) -> Option<CornerCommitSnapshot> {
        let c = self.flows[slot as usize].committed.as_ref()?;
        Some(CornerCommitSnapshot {
            corners: c.corners.iter().map(|s| s.to_string()).collect(),
            evaluators: c.evaluators.iter().map(|s| s.to_string()).collect(),
            input_slew: c.input_slew,
            books: c.books.iter().map(export_book).collect(),
        })
    }

    /// Validates a snapshot against this engine's netlist and makes it
    /// one flow's committed books.
    fn import(
        &mut self,
        slot: Slot,
        context: &'static str,
        snap: CornerCommitSnapshot,
    ) -> Result<()> {
        if snap.evaluators.len() != snap.corners.len() || snap.books.len() != snap.corners.len() {
            return Err(NumError::InvalidInput {
                context,
                detail: format!(
                    "{} corners but {} evaluators and {} books",
                    snap.corners.len(),
                    snap.evaluators.len(),
                    snap.books.len()
                ),
            });
        }
        let (nets, stages) = (self.netlist.net_count(), self.graph.len());
        let books = snap
            .books
            .into_iter()
            .map(|b| import_book(context, b, nets, stages))
            .collect::<Result<Vec<_>>>()?;
        self.flows[slot as usize].committed = Some(Committed {
            corners: snap.corners.iter().map(|s| intern(s)).collect(),
            evaluators: snap.evaluators.iter().map(|s| intern(s)).collect(),
            input_slew: snap.input_slew,
            books,
        });
        Ok(())
    }

    /// Exports the single-corner commit book, or `None` before the
    /// first `run_incremental`.
    pub fn export_committed(&self) -> Option<CommitSnapshot> {
        let mut one = self.export(Slot::Single)?;
        Some(CommitSnapshot {
            evaluator: one.evaluators.pop()?,
            input_slew: one.input_slew,
            book: one.books.pop()?,
        })
    }

    /// Seeds the single-corner commit book from a snapshot, replacing
    /// any current book. Dirty marks are left alone — replay edits
    /// *after* importing to rebuild the dirty cone.
    ///
    /// # Errors
    ///
    /// [`NumError::InvalidInput`] when the book does not match this
    /// engine's netlist (wrong net count, out-of-range committing
    /// stage) or carries non-finite entries.
    pub fn import_committed(&mut self, snap: CommitSnapshot) -> Result<()> {
        let one = CornerCommitSnapshot {
            corners: vec![String::new()],
            evaluators: vec![snap.evaluator],
            input_slew: snap.input_slew,
            books: vec![snap.book],
        };
        self.import(Slot::Single, "StaEngine::import_committed", one)
    }

    /// Exports the per-corner commit books, or `None` before the first
    /// `run_incremental_corners`.
    pub fn export_committed_corners(&self) -> Option<CornerCommitSnapshot> {
        self.export(Slot::Corners)
    }

    /// Seeds the per-corner commit books from a snapshot, replacing
    /// any current books. Dirty marks are left alone, as in
    /// [`StaEngine::import_committed`].
    ///
    /// # Errors
    ///
    /// [`NumError::InvalidInput`] on shape mismatches: corner/evaluator
    /// list lengths differing, a book count differing from the corner
    /// count, or any per-book failure as in
    /// [`StaEngine::import_committed`].
    pub fn import_committed_corners(&mut self, snap: CornerCommitSnapshot) -> Result<()> {
        self.import(Slot::Corners, "StaEngine::import_committed_corners", snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corners::CornerRun;
    use crate::evaluator::QwmEvaluator;
    use crate::graph::inverter_chain;
    use crate::report::golden_report;
    use qwm_device::corner::intern;
    use qwm_device::{analytic_models, Technology};

    fn chain_engine(models: &qwm_device::ModelSet) -> StaEngine<'_> {
        let tech = Technology::cmosp35();
        let nl = inverter_chain(&tech, 4, 10e-15);
        StaEngine::new(nl, models, TransitionKind::Fall).unwrap()
    }

    #[test]
    fn export_import_roundtrips_bitwise_and_stays_incremental() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let eval = QwmEvaluator::default();

        let mut warm = chain_engine(&models);
        warm.set_input_slew(20e-12).unwrap();
        warm.run_incremental(&eval).unwrap();
        let snap = warm.export_committed().expect("book after a run");

        // A rebuilt engine seeded with the snapshot does NOT fall back
        // to a cold full run, and with nothing dirty it does no work.
        let mut restored = chain_engine(&models);
        restored.set_input_slew(20e-12).unwrap();
        restored.import_committed(snap.clone()).unwrap();
        restored.run_incremental(&eval).unwrap();
        let stats = restored.incremental_stats();
        assert!(
            !stats.full_run,
            "imported book must keep the run incremental"
        );
        assert_eq!(stats.evaluated_stages, 0, "nothing is dirty");

        // Export of the import is bitwise-identical.
        assert_eq!(restored.export_committed().unwrap(), snap);

        // The restart contract: apply the same edit to both engines;
        // the post-edit incremental reports are byte-identical in the
        // golden rendering — including the per-run evaluation count,
        // because on a chain the edit changes every downstream slew, so
        // every dirty-cone arc is a cache miss in both engines.
        let w = warm.netlist().devices()[1].geom.w;
        warm.resize_device(1, 1.5 * w).unwrap();
        restored.resize_device(1, 1.5 * w).unwrap();
        let r1 = warm.run_incremental(&eval).unwrap();
        let r2 = restored.run_incremental(&eval).unwrap();
        assert!(!restored.incremental_stats().full_run);
        assert_eq!(
            golden_report(&r1, warm.netlist()),
            golden_report(&r2, restored.netlist())
        );
        assert_eq!(
            warm.export_committed().unwrap(),
            restored.export_committed().unwrap()
        );
    }

    #[test]
    fn corner_snapshot_roundtrips() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let eval = QwmEvaluator::default();
        let runs = [
            CornerRun {
                name: intern("tt"),
                models: &models,
                evaluator: &eval,
            },
            CornerRun {
                name: intern("ss"),
                models: &models,
                evaluator: &eval,
            },
        ];
        let mut warm = chain_engine(&models);
        warm.set_input_slew(20e-12).unwrap();
        warm.run_incremental_corners(&runs).unwrap();
        let snap = warm.export_committed_corners().expect("corner books");
        assert_eq!(snap.corners, vec!["tt", "ss"]);

        let mut restored = chain_engine(&models);
        restored.set_input_slew(20e-12).unwrap();
        restored.import_committed_corners(snap.clone()).unwrap();
        restored.run_incremental_corners(&runs).unwrap();
        assert!(!restored.incremental_stats().full_run);
        assert_eq!(restored.export_committed_corners().unwrap(), snap);

        // Same edit on both engines → bitwise-identical corner reports.
        let w = warm.netlist().devices()[1].geom.w;
        warm.resize_device(1, 1.5 * w).unwrap();
        restored.resize_device(1, 1.5 * w).unwrap();
        let rep1 = warm.run_incremental_corners(&runs).unwrap();
        let rep2 = restored.run_incremental_corners(&runs).unwrap();
        assert!(!restored.incremental_stats().full_run);
        assert_eq!(rep1.corners, rep2.corners);
        assert_eq!(rep1.reports.len(), rep2.reports.len());
        for (a, b) in rep1.reports.iter().zip(rep2.reports.iter()) {
            assert_eq!(
                golden_report(a, warm.netlist()),
                golden_report(b, restored.netlist())
            );
        }
        assert_eq!(
            warm.export_committed_corners().unwrap(),
            restored.export_committed_corners().unwrap()
        );
    }

    #[test]
    fn import_validates_shape() {
        let tech = Technology::cmosp35();
        let models = analytic_models(&tech);
        let mut e = chain_engine(&models);
        let wrong_len = CommitSnapshot {
            evaluator: "elmore".into(),
            input_slew: 0.0,
            book: vec![None; 3],
        };
        assert!(e.import_committed(wrong_len).is_err());
        let nets = e.netlist().net_count();
        let bad_pred = CommitSnapshot {
            evaluator: "elmore".into(),
            input_slew: 0.0,
            book: (0..nets).map(|_| Some((1e-12, 1e-12, Some(999)))).collect(),
        };
        assert!(e.import_committed(bad_pred).is_err());
        let non_finite = CommitSnapshot {
            evaluator: "elmore".into(),
            input_slew: 0.0,
            book: (0..nets).map(|_| Some((f64::NAN, 1e-12, None))).collect(),
        };
        assert!(e.import_committed(non_finite).is_err());
    }
}
