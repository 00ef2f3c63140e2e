//! The six workloads and the design each one times.

use crate::gen;
use qwm::circuit::cells::decoder_tree_netlist;
use qwm::circuit::netlist::Netlist;
use qwm::circuit::parser::parse_netlist;
use qwm::device::{analytic_models, tabular_models, Corner, CornerModels, ModelSet, Technology};
use qwm::num::rng::Rng64;
use qwm::sta::graph::random_dag_netlist;

/// A workload, by its final name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DagCold,
    DagCorners,
    WireTree,
    ServeMixed,
    ServeWhatif,
    ServeDurable,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::DagCold,
        Workload::DagCorners,
        Workload::WireTree,
        Workload::ServeMixed,
        Workload::ServeWhatif,
        Workload::ServeDurable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DagCold => "dag_cold",
            Workload::DagCorners => "dag_corners",
            Workload::WireTree => "wire_tree",
            Workload::ServeMixed => "serve_mixed",
            Workload::ServeWhatif => "serve_whatif",
            Workload::ServeDurable => "serve_durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json` and the README: which layers do
    /// the work here, and which do none.
    pub fn why(self) -> &'static str {
        match self {
            Workload::DagCold => "cold full-design timing of a 10k-stage DAG, in-process: kernel-bound (core, device scalar lookups, sta full traversal); server, store and interconnect do nothing",
            Workload::DagCorners => "cold batched ss/tt/ff sweep of a 2400-stage DAG: same kernel through forward_batch lanes and per-corner books; a scalar-only win or a cross-corner win shows here, not in dag_cold",
            Workload::WireTree => "7-level decoder tree, one channel-connected stage with 254 wires: long pass-transistor chains and lumped wires, ~10x the per-arc cost of the DAGs; a DAG-tuned kernel change can cost here",
            Workload::ServeMixed => "run/corners/edit/report mix on path4 sessions through a live qwm serve: solve is a small share, protocol parse, admission, session lock and report render dominate; bypass workload for kernel changes",
            Workload::ServeWhatif => "edit + incremental run on a 2400-stage DAG session per connection, store off: the interactive what-if number, bound by incremental traversal overhead, not arcs",
            Workload::ServeDurable => "the same what-if on a 600-stage DAG with --store and snapshot-every 1, killed and restarted each cycle: the write path and warm restore; only store/codec changes move it",
        }
    }

    /// Whether the in-process op is the batched corner sweep.
    pub fn sweeps_corners(self) -> bool {
        self == Workload::DagCorners
    }

    /// Whether the op goes through a `qwm serve` child.
    pub fn served(self) -> bool {
        matches!(
            self,
            Workload::ServeMixed | Workload::ServeWhatif | Workload::ServeDurable
        )
    }
}

/// DAG sizes. They sit inside the bare-QWM evaluator's converging range
/// on purpose (see README, "Findings from sizing").
pub const DAG_COLD_STAGES: usize = 10_000;
pub const DAG_CORNERS_STAGES: usize = 2_400;
pub const WHATIF_STAGES: usize = 2_400;
pub const DURABLE_STAGES: usize = 600;
/// SPICE-tractable siblings the arrival error is measured on.
pub const SIBLING_STAGES: usize = 200;
pub const TREE_LEVELS: usize = 7;
/// SPICE on one 5-level tree stage alone takes 16 s; 3 levels take 0.1 s.
pub const SIBLING_TREE_LEVELS: usize = 3;

/// The path4 deck `serve_mixed` sessions load, embedded so the
/// benchmark reads nothing outside its own directory at run time.
pub const PATH4_DECK: &str = include_str!("../../testdata/path4.sp");

/// A design as the program receives it.
pub struct Design {
    pub netlist: Netlist,
    pub deck: String,
    /// Primary-input slew of the slew-aware flow \[s\]; `None` times
    /// with step inputs (`StaEngine::run`), as `wire_tree` does.
    pub slew: Option<f64>,
}

impl Design {
    fn from_netlist(netlist: Netlist, slew: Option<f64>) -> Design {
        Design {
            deck: gen::deck_text(&netlist),
            netlist,
            slew,
        }
    }

    fn dag(tech: &Technology, stages: usize, seed: u64, lane: u64) -> Design {
        let design_seed = Rng64::stream(seed, &[lane]).next_u64();
        let nl = random_dag_netlist(tech, stages, design_seed);
        Design::from_netlist(nl, Some(gen::SLEW_PS * 1e-12))
    }

    /// Decoder tree whose wire pitch and leaf load vary a little with
    /// the seed (50 µm ± 5 %, 10 fF ± 10 %), so the seed reaches this
    /// workload's input too.
    fn tree(tech: &Technology, levels: usize, seed: u64) -> Design {
        let mut rng = Rng64::stream(seed, &[gen::LANE_DESIGN]);
        let wire = 50e-6 * rng.range(0.95, 1.05);
        let load = 10e-15 * rng.range(0.9, 1.1);
        let nl = decoder_tree_netlist(tech, levels, wire, load).expect("levels > 0");
        Design::from_netlist(nl, None)
    }

    /// The design of a workload and input seed.
    pub fn of(workload: Workload, tech: &Technology, seed: u64) -> Design {
        let dag = |stages| Design::dag(tech, stages, seed, gen::LANE_DESIGN);
        match workload {
            Workload::DagCold => dag(DAG_COLD_STAGES),
            Workload::DagCorners => dag(DAG_CORNERS_STAGES),
            Workload::WireTree => Design::tree(tech, TREE_LEVELS, seed),
            Workload::ServeMixed => Design {
                netlist: parse_netlist(PATH4_DECK).expect("path4.sp parses"),
                deck: PATH4_DECK.to_string(),
                slew: Some(gen::SLEW_PS * 1e-12),
            },
            Workload::ServeWhatif => dag(WHATIF_STAGES),
            Workload::ServeDurable => dag(DURABLE_STAGES),
        }
    }

    /// The `index`-th small sibling of the same seed, one SPICE can time
    /// whole: a 200-stage DAG for the DAG workloads, the 3-level tree,
    /// or path4 itself at a seeded input ramp.
    pub fn sibling(workload: Workload, tech: &Technology, seed: u64, index: u64) -> Design {
        match workload {
            Workload::WireTree => Design::tree(tech, SIBLING_TREE_LEVELS, seed),
            Workload::ServeMixed => {
                let mut rng = Rng64::stream(seed, &[gen::LANE_SIBLING]);
                let mut path4 = Design::of(workload, tech, seed);
                path4.slew = Some(gen::ramp_ps(&mut rng) * 1e-12);
                path4
            }
            _ => Design::dag(tech, SIBLING_STAGES, seed, gen::LANE_SIBLING + index),
        }
    }
}

impl Workload {
    /// How many siblings the arrival error is averaged over. One
    /// 200-stage DAG has one critical path, and its error moves by an
    /// eighth from seed to seed; the mean over four is steady enough to
    /// carry a bound. The tree and path4 have one sibling each.
    pub fn sibling_count(self) -> u64 {
        match self {
            Workload::WireTree | Workload::ServeMixed => 1,
            _ => 4,
        }
    }
}

/// Input seeds on which, at the commit that added this benchmark, no
/// operation of any workload fails: every op of the window, every arc of
/// the accuracy sample under both engines, every sibling and every
/// ledger section. `--seed n` selects `PINNED_SEEDS[n % len]`.
///
/// Bare QWM fails to converge on about one arc evaluation in 10^5
/// (README, findings), which spoils about one unpinned seed in twelve at
/// 10 000 stages. The inputs are fixed here, by seed alone and never by
/// asking the program under test, so that an op that stops converging on
/// a later commit is counted as failed instead of being replaced.
/// README, "Pinned input seeds", says how the list was made.
pub const PINNED_SEEDS: [u64; 16] = [2, 4, 6, 7, 10, 11, 12, 14, 15, 16, 22, 25, 28, 30, 31, 34];

/// The input seed `--seed` stands for.
pub fn input_seed(seed: u64) -> u64 {
    PINNED_SEEDS[(seed % PINNED_SEEDS.len() as u64) as usize]
}

/// Device models of one run: tabular for QWM, analytic for the SPICE
/// reference, plus the three sweep corners of both kinds.
pub struct Models {
    pub tech: Technology,
    pub tabular: ModelSet,
    pub analytic: ModelSet,
    pub corners_tabular: CornerModels,
    pub corners_analytic: CornerModels,
}

impl Models {
    /// Characterizes fresh tables (never the process-wide cache, so
    /// repeated set-ups in one process cost the same each time).
    pub fn characterize(with_corners: bool) -> Models {
        let tech = Technology::cmosp35();
        let corners = if with_corners {
            qwm::device::parse_corner_list(gen::CORNERS).expect("ss,tt,ff parses")
        } else {
            Vec::<Corner>::new()
        };
        Models {
            tabular: tabular_models(&tech).expect("stock technology characterizes"),
            analytic: analytic_models(&tech),
            corners_tabular: CornerModels::tabular(&tech, &corners)
                .expect("stock corners characterize"),
            corners_analytic: CornerModels::analytic(&tech, &corners),
            tech,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qwm::circuit::waveform::TransitionKind;
    use qwm::sta::report::golden_report;
    use qwm::sta::{QwmEvaluator, StaEngine};

    /// The deck the benchmark writes must give the program the same
    /// design the generator built: same stage ids, same bits.
    #[test]
    fn deck_round_trip_reproduces_the_golden_report() {
        let models = Models::characterize(false);
        let d = Design::dag(&models.tech, 120, 7, gen::LANE_DESIGN);
        let slew = d.slew.expect("dag designs are slew-aware");
        let golden = |nl: Netlist| {
            let e = StaEngine::new(nl, &models.tabular, TransitionKind::Fall).expect("engine");
            let r = e
                .run_with_slew(&QwmEvaluator::default(), slew)
                .expect("run");
            golden_report(&r, e.netlist())
        };
        let parsed = parse_netlist(&d.deck).expect("own deck parses");
        assert_eq!(parsed.devices().len(), d.netlist.devices().len());
        assert_eq!(parsed.net_count(), d.netlist.net_count());
        assert_eq!(golden(parsed), golden(d.netlist.clone()));
    }

    #[test]
    fn tree_deck_parses_to_one_stage_with_every_wire() {
        let tech = Technology::cmosp35();
        let d = Design::tree(&tech, 4, 3);
        let parsed = parse_netlist(&d.deck).expect("tree deck parses");
        assert_eq!(parsed.devices().len(), d.netlist.devices().len());
        assert_eq!(
            qwm::circuit::partition::partition(&parsed)
                .expect("partition")
                .len(),
            1
        );
        assert_eq!(parsed.primary_outputs().len(), 16);
    }

    #[test]
    fn same_seed_same_design_other_seed_other_design() {
        let tech = Technology::cmosp35();
        let a = Design::of(Workload::ServeDurable, &tech, 11);
        let b = Design::of(Workload::ServeDurable, &tech, 11);
        assert_eq!(a.deck, b.deck);
        assert_ne!(a.deck, Design::of(Workload::ServeDurable, &tech, 12).deck);
        assert_ne!(
            Design::of(Workload::WireTree, &tech, 1).deck,
            Design::of(Workload::WireTree, &tech, 2).deck
        );
    }

    #[test]
    fn every_seed_selects_a_pinned_input_seed() {
        let mut pins = PINNED_SEEDS.to_vec();
        pins.sort_unstable();
        pins.dedup();
        assert_eq!(pins.len(), PINNED_SEEDS.len(), "a seed is pinned twice");
        let n = PINNED_SEEDS.len() as u64;
        for seed in [0, 1, n - 1, n, 12_345, u64::MAX] {
            assert_eq!(input_seed(seed), PINNED_SEEDS[(seed % n) as usize]);
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
