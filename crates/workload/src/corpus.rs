//! Pre-built serving corpora: one graph per [`Family`], many entries —
//! each a partition with its constructed shortcut, a verification
//! threshold, and an edge-weight permutation — so the drivers serve warm
//! and the workload measures serving, not setup.
//!
//! Entry 0 is the family's *canonical* partition (grid columns, wheel
//! arcs — the shapes the paper's bounds are stated for); the remaining
//! entries are seeded random BFS-ball partitions, which is where
//! construction cost varies. Under Zipf skew rank 0 is the hottest
//! entry, so θ=1 traffic hammers the canonical decomposition while the
//! tail occasionally pays for the irregular ones.

use lcs_api::graph::{generators, EdgeWeights, Graph, NodeId, Partition};
use lcs_api::{
    LcsError, PartitionDelta, Pipeline, RepairBaseline, Result, Session, Strategy, TreeShortcut,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The graph families a corpus can be built over — the same five the
/// experiment tiers sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Planar `size × size` grid; canonical partition = columns.
    Grid,
    /// `size × size` torus (genus grows with size).
    Torus,
    /// Random connected graph on `size²` nodes with `size²` extra edges.
    Random,
    /// Caterpillar tree on ~`size²` nodes (spine `size²/4`, 3 legs each).
    Caterpillar,
    /// Wheel on `size² + 1` nodes; canonical partition = rim arcs.
    Wheel,
}

impl Family {
    /// All five families.
    pub const ALL: [Family; 5] = [
        Family::Grid,
        Family::Torus,
        Family::Random,
        Family::Caterpillar,
        Family::Wheel,
    ];

    /// Short label for table rows.
    pub fn label(&self) -> &'static str {
        match self {
            Family::Grid => "grid",
            Family::Torus => "torus",
            Family::Random => "random",
            Family::Caterpillar => "caterpillar",
            Family::Wheel => "wheel",
        }
    }
}

/// What to build: a family, its size knob (roughly `size²` nodes), how
/// many partition entries, and the seed the random partitions, weight
/// permutations, and construction sessions all derive from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Graph family.
    pub family: Family,
    /// Size knob: grids/tori are `size × size`; other families target
    /// ~`size²` nodes. Must be ≥ 3.
    pub size: usize,
    /// Number of corpus entries (partitions). Must be ≥ 1.
    pub entries: usize,
    /// Seed for partitions, weights, and the construction session.
    pub seed: u64,
}

/// A pre-generated churn case for repair queries: the tracked baseline
/// (partition + shortcut corpus at corpus-build time) and the seeded
/// delta every `repair` event against this entry replays. Pre-generating
/// both keeps the trace a pure function of the [`WorkloadSpec`] — serving
/// never draws fresh randomness.
///
/// [`WorkloadSpec`]: crate::WorkloadSpec
#[derive(Debug, Clone)]
pub struct RepairCase {
    /// The tracked repair baseline.
    pub baseline: RepairBaseline,
    /// The partition delta to replay. Validated at corpus-build time:
    /// applying it yields a connected partition with no empty part.
    pub delta: PartitionDelta,
}

/// One pre-built serving entry.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The partition queries target.
    pub partition: Partition,
    /// The shortcut constructed for it at corpus-build time (what verify
    /// and quality queries consume).
    pub shortcut: TreeShortcut,
    /// Verification threshold: 3× the winning doubling guess's block
    /// parameter, the same "good" margin the construction proves.
    pub threshold: usize,
    /// A seeded weight permutation for MST queries against this entry.
    pub weights: EdgeWeights,
    /// Pre-generated churn case for repair queries. `None` unless the
    /// corpus was built with [`Corpus::build_with_repair`]; a mix with a
    /// nonzero `repair` weight over a `None` corpus is a config error.
    pub repair: Option<RepairCase>,
}

/// A graph plus its pre-built entries — everything the drivers borrow.
#[derive(Debug)]
pub struct Corpus {
    graph: Graph,
    entries: Vec<CorpusEntry>,
    label: String,
}

impl Corpus {
    /// Builds the graph, the partitions, and every entry's shortcut /
    /// threshold / weights. Deterministic in `spec`.
    ///
    /// # Errors
    ///
    /// [`LcsError::Config`] for a degenerate spec (`entries == 0` or
    /// `size < 3`); otherwise whatever the construction session reports.
    pub fn build(spec: &CorpusSpec) -> Result<Corpus> {
        Corpus::build_inner(spec, false)
    }

    /// [`Corpus::build`] plus a pre-generated [`RepairCase`] per entry,
    /// enabling the `repair` kind in query mixes. The extra work is
    /// additive — graph, partitions, shortcuts, thresholds, and weights
    /// are byte-identical to a plain [`Corpus::build`] of the same spec.
    ///
    /// # Errors
    ///
    /// Same as [`Corpus::build`].
    pub fn build_with_repair(spec: &CorpusSpec) -> Result<Corpus> {
        Corpus::build_inner(spec, true)
    }

    fn build_inner(spec: &CorpusSpec, with_repair: bool) -> Result<Corpus> {
        if spec.entries == 0 {
            return Err(LcsError::Config {
                reason: "corpus needs at least one entry (spec.entries = 0)".to_string(),
            });
        }
        if spec.size < 3 {
            return Err(LcsError::Config {
                reason: format!("corpus size knob must be >= 3, got {}", spec.size),
            });
        }
        let n = spec.size * spec.size;
        let graph = match spec.family {
            Family::Grid => generators::grid(spec.size, spec.size),
            Family::Torus => generators::torus(spec.size, spec.size),
            Family::Random => generators::random_connected(n, n, spec.seed),
            Family::Caterpillar => generators::caterpillar((n / 4).max(1), 3),
            Family::Wheel => generators::wheel(n + 1),
        };
        let parts = spec.size.max(4);
        let session = Pipeline::on(&graph).seed(spec.seed).build()?;
        let mut entries = Vec::with_capacity(spec.entries);
        for k in 0..spec.entries {
            let partition = if k == 0 {
                match spec.family {
                    Family::Grid => generators::partitions::grid_columns(spec.size, spec.size),
                    Family::Wheel => generators::partitions::wheel_arcs(n + 1, parts),
                    _ => generators::partitions::random_bfs_balls(&graph, parts, spec.seed),
                }
            } else {
                generators::partitions::random_bfs_balls(
                    &graph,
                    parts,
                    spec.seed.wrapping_add(k as u64),
                )
            };
            let run = session.shortcut(&partition, Strategy::doubling())?;
            let (_, block_guess) = run.winning_guess().ok_or_else(|| LcsError::Config {
                reason: "corpus construction ended without a winning guess".to_string(),
            })?;
            let repair = if with_repair {
                Some(repair_case(&graph, &session, &partition, spec, k)?)
            } else {
                None
            };
            entries.push(CorpusEntry {
                partition,
                shortcut: run.shortcut,
                threshold: 3 * block_guess,
                weights: EdgeWeights::random_permutation(&graph, spec.seed.wrapping_add(k as u64)),
                repair,
            });
        }
        drop(session);
        let label = format!("{} {}x{}", spec.family.label(), spec.size, spec.size);
        Ok(Corpus {
            graph,
            entries,
            label,
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The pre-built entries, in rank order (entry 0 = Zipf-hottest).
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always `false`: construction rejects zero entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Human-readable corpus label, e.g. `"grid 16x16"`.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// Seed-mixing constant for the repair-delta stream: keeps delta draws
/// independent of the partition / weight streams derived from the same
/// corpus seed.
const REPAIR_SEED_MIX: u64 = 0x5245_5041_4952; // "REPAIR"

/// Tracks `partition` through `session` and pre-generates a seeded,
/// validated delta for it.
fn repair_case(
    graph: &Graph,
    session: &Session,
    partition: &Partition,
    spec: &CorpusSpec,
    entry_index: usize,
) -> Result<RepairCase> {
    // The corpus holds this baseline for its whole life: the clone sizes
    // every buffer to its length, dropping the slack the build grew.
    let baseline = session
        .track_partition(partition, Strategy::doubling())?
        .baseline
        .clone();
    let delta = repair_delta(
        graph,
        partition,
        (spec.seed ^ REPAIR_SEED_MIX).wrapping_add(entry_index as u64),
    )?;
    Ok(RepairCase { baseline, delta })
}

/// Draws a small, valid churn delta: a seeded boundary-node move when one
/// exists (a node whose part keeps >= 2 members and that has a neighbor
/// in another part, accepted only if the edited parts stay connected),
/// falling back to merging the first adjacent part pair — always valid
/// when the partition has >= 2 parts.
fn repair_delta(graph: &Graph, partition: &Partition, seed: u64) -> Result<PartitionDelta> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = graph.node_count();
    for _ in 0..64 {
        let v = NodeId::new(rng.gen_range(0..n));
        let Some(src) = partition.part_of(v) else {
            continue;
        };
        if partition.members(src).len() < 2 {
            continue;
        }
        let Some(dst) = graph
            .neighbors(v)
            .find_map(|(u, _)| partition.part_of(u).filter(|&p| p != src))
        else {
            continue;
        };
        let delta = PartitionDelta::new().move_nodes(vec![v], dst);
        let still_connected = partition
            .apply(&delta)
            .is_ok_and(|moved| moved.validate(graph).is_ok());
        if still_connected {
            return Ok(delta);
        }
    }
    for (_, edge) in graph.edges() {
        if let (Some(a), Some(b)) = (partition.part_of(edge.u), partition.part_of(edge.v)) {
            if a != b {
                return Ok(PartitionDelta::new().merge_parts(a.min(b), a.max(b)));
            }
        }
    }
    Err(LcsError::Config {
        reason: "corpus partition admits no churn delta (single part?)".to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_family_small() {
        for family in Family::ALL {
            let corpus = Corpus::build(&CorpusSpec {
                family,
                size: 4,
                entries: 2,
                seed: 5,
            })
            .unwrap_or_else(|e| panic!("{}: {e}", family.label()));
            assert_eq!(corpus.len(), 2);
            assert!(!corpus.is_empty());
            assert!(corpus.label().starts_with(family.label()));
            for entry in corpus.entries() {
                assert!(entry.threshold >= 3);
                assert_eq!(entry.partition.node_count(), corpus.graph().node_count());
            }
        }
    }

    #[test]
    fn empty_and_tiny_specs_are_config_errors() {
        let bad = Corpus::build(&CorpusSpec {
            family: Family::Grid,
            size: 4,
            entries: 0,
            seed: 1,
        });
        assert!(matches!(bad, Err(LcsError::Config { .. })));
        let tiny = Corpus::build(&CorpusSpec {
            family: Family::Grid,
            size: 2,
            entries: 1,
            seed: 1,
        });
        assert!(matches!(tiny, Err(LcsError::Config { .. })));
    }

    #[test]
    fn build_with_repair_yields_valid_cases_and_identical_entries() {
        for family in [Family::Grid, Family::Wheel, Family::Random] {
            let spec = CorpusSpec {
                family,
                size: 4,
                entries: 2,
                seed: 5,
            };
            let plain = Corpus::build(&spec).unwrap();
            let churn = Corpus::build_with_repair(&spec).unwrap();
            for (p, c) in plain.entries().iter().zip(churn.entries()) {
                // The repair cases are additive: everything else is
                // byte-identical to a plain build.
                assert_eq!(p.shortcut, c.shortcut);
                assert_eq!(p.threshold, c.threshold);
                assert!(p.repair.is_none());
                let case = c.repair.as_ref().expect("repair case generated");
                // The pre-generated delta applies cleanly and keeps every
                // part connected and nonempty.
                let repaired = c.partition.apply(&case.delta).unwrap();
                repaired.validate(churn.graph()).unwrap();
                assert_eq!(
                    case.baseline.partition().part_count(),
                    c.partition.part_count()
                );
            }
        }
    }

    #[test]
    fn deltas_that_empty_a_partition_are_config_errors() {
        let spec = CorpusSpec {
            family: Family::Grid,
            size: 4,
            entries: 1,
            seed: 2,
        };
        let corpus = Corpus::build_with_repair(&spec).unwrap();
        let entry = &corpus.entries()[0];
        let case = entry.repair.as_ref().unwrap();
        // Drain part 0 entirely into part 1: rejected as a typed config
        // error both at the delta layer and when served as a repair query.
        let p0 = lcs_api::graph::PartId::new(0);
        let p1 = lcs_api::graph::PartId::new(1);
        let drain = PartitionDelta::new().move_nodes(entry.partition.members(p0).to_vec(), p1);
        assert!(matches!(
            entry.partition.apply(&drain),
            Err(LcsError::Config { .. })
        ));
        let session = Pipeline::on(corpus.graph())
            .seed(spec.seed)
            .build()
            .unwrap();
        assert!(matches!(
            session.repair_from(&case.baseline, &drain),
            Err(LcsError::Config { .. })
        ));
    }

    #[test]
    fn build_is_deterministic() {
        let spec = CorpusSpec {
            family: Family::Torus,
            size: 4,
            entries: 3,
            seed: 9,
        };
        let a = Corpus::build(&spec).unwrap();
        let b = Corpus::build(&spec).unwrap();
        for (ea, eb) in a.entries().iter().zip(b.entries()) {
            assert_eq!(ea.shortcut, eb.shortcut);
            assert_eq!(ea.threshold, eb.threshold);
        }
    }
}
