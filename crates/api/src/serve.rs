//! The serving seam: one dispatchable [`Query`] shape plus a `Copy`
//! per-query record ([`Served`]), so workload drivers can time and
//! fingerprint thousands of queries without building (or keeping) a
//! heap-allocated [`crate::Report`] per query.
//!
//! A [`Query`] borrows everything it references — the partition, the
//! prebuilt decomposition, the edge weights — from a corpus the *caller*
//! owns, and [`Session::serve_shared`] answers it while recording only a
//! [`Served`]: the wall-clock nanoseconds the query took (the same
//! quantity [`crate::Report::wall_millis`] reports, at nanosecond
//! resolution and without the report's string/vector allocations) plus an
//! FNV-1a fingerprint of the result *values*. Two runs of the same query
//! stream produce the same digest chain exactly when every result is
//! byte-identical — the cheap determinism check the workload harness
//! (`lcs_workload`) is built on. Callers that need the values themselves
//! (equivalence tests, result-collecting drivers) use
//! [`Session::serve_shared_full`], which returns the owned [`QueryValue`]
//! alongside the record; both paths compute the identical digest. Both
//! take `&self`, so any number of threads may serve one warm session.

use std::time::Instant;

use lcs_core::{ShortcutQuality, TreeShortcut};
use lcs_graph::{EdgeId, EdgeWeights, LcsResult, Partition, PartitionDelta};
use lcs_mst::ShortcutStrategy;

use crate::{RepairBaseline, Session, Strategy};

/// One serving query, borrowing its inputs from a caller-owned corpus.
/// Dispatched by [`Session::serve_shared`] / [`Session::serve_shared_full`].
#[derive(Debug, Clone, Copy)]
pub enum Query<'a> {
    /// Construct a shortcut for `partition` ([`Session::shortcut`]).
    Construct {
        /// The partition to construct for.
        partition: &'a Partition,
        /// The construction strategy.
        strategy: Strategy,
    },
    /// Verify a prebuilt decomposition against a block-count threshold
    /// ([`Session::verify`]) — the "one decomposition, many consumers"
    /// query shape.
    Verify {
        /// The prebuilt shortcut under verification.
        shortcut: &'a TreeShortcut,
        /// The partition the shortcut was built for.
        partition: &'a Partition,
        /// Maximum number of block components for a part to count as good.
        threshold: usize,
    },
    /// Measure the quality of a prebuilt decomposition
    /// ([`Session::quality`]).
    Quality {
        /// The prebuilt shortcut to measure.
        shortcut: &'a TreeShortcut,
        /// The partition the shortcut was built for.
        partition: &'a Partition,
    },
    /// Run distributed Boruvka MST over the session's graph
    /// ([`Session::mst`]).
    Mst {
        /// The edge weights to minimize over.
        weights: &'a EdgeWeights,
        /// The per-phase shortcut strategy.
        strategy: ShortcutStrategy,
    },
    /// Incrementally repair a tracked decomposition after a partition
    /// delta ([`Session::repair_from`]) — the churn query shape, a pure
    /// function of `(baseline, delta)`.
    Repair {
        /// The pre-delta baseline (partition + corpus).
        baseline: &'a RepairBaseline,
        /// The partition edit to apply and repair after.
        delta: &'a PartitionDelta,
    },
}

impl Query<'_> {
    /// The per-kind metric paths `Session::serve_shared` reports under when a
    /// recorder is attached: `(queries counter, rounds counter, latency
    /// timer)`. Static strings so the hot serving path never formats a
    /// metric name.
    fn probe_paths(&self) -> (&'static str, &'static str, &'static str) {
        match self {
            Query::Construct { .. } => (
                "serve/construct/queries",
                "serve/construct/rounds_charged",
                "serve/construct/latency",
            ),
            Query::Verify { .. } => (
                "serve/verify/queries",
                "serve/verify/rounds_charged",
                "serve/verify/latency",
            ),
            Query::Quality { .. } => (
                "serve/quality/queries",
                "serve/quality/rounds_charged",
                "serve/quality/latency",
            ),
            Query::Mst { .. } => (
                "serve/mst/queries",
                "serve/mst/rounds_charged",
                "serve/mst/latency",
            ),
            Query::Repair { .. } => (
                "serve/repair/queries",
                "serve/repair/rounds_charged",
                "serve/repair/latency",
            ),
        }
    }
}

/// The allocation-free record of one served query. `Copy`, so a workload
/// driver can record millions of these into preallocated histograms
/// without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// Wall-clock nanoseconds the query took (service time, excluding the
    /// digest computation).
    pub wall_nanos: u64,
    /// FNV-1a fingerprint of the result values (not the timings): equal
    /// digests for equal results, regardless of thread count or clock.
    pub digest: u64,
    /// CONGEST rounds charged by the query (0 for quality queries, which
    /// measure rather than route).
    pub rounds_charged: u64,
    /// Whether every queried part ended good (construction/verification;
    /// `true` for quality and successful MST queries).
    pub all_good: bool,
}

/// The owned result values of one served query, as returned by
/// [`Session::serve_shared_full`]. Field-for-field identical to what the
/// dedicated query methods return, so equivalence tests can compare a
/// driver's collected values against direct [`Session`] calls.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// The constructed shortcut of a [`Query::Construct`].
    Construct(TreeShortcut),
    /// The verdicts of a [`Query::Verify`].
    Verify {
        /// `good[p]` — part `p` has at most the threshold block count.
        good: Vec<bool>,
        /// Measured block-component count per part.
        block_counts: Vec<usize>,
    },
    /// The measured quality of a [`Query::Quality`].
    Quality(ShortcutQuality),
    /// The MST of a [`Query::Mst`].
    Mst {
        /// The MST edges, sorted by edge id.
        edges: Vec<EdgeId>,
        /// Total weight of the returned edges.
        weight: u64,
    },
    /// The repaired decomposition of a [`Query::Repair`].
    Repair {
        /// The post-delta shortcut (byte-identical to a full rebuild).
        shortcut: TreeShortcut,
        /// The re-aggregated quality.
        quality: ShortcutQuality,
        /// Per-part good verdicts.
        good: Vec<bool>,
        /// Parts rebuilt by the repair.
        repaired_parts: usize,
        /// Parts reused verbatim.
        reused_parts: usize,
    },
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a fingerprint over a stream of `u64` words — the digest
/// both [`Session::serve_shared`] and workload drivers chain result values into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueDigest(u64);

impl ValueDigest {
    /// The empty digest (FNV-1a offset basis).
    pub fn new() -> Self {
        ValueDigest(FNV_OFFSET)
    }

    /// Folds one word into the digest, byte by byte (little-endian).
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The digest value accumulated so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl Default for ValueDigest {
    fn default() -> Self {
        ValueDigest::new()
    }
}

fn digest_of(value: &QueryValue) -> u64 {
    let mut d = ValueDigest::new();
    match value {
        QueryValue::Construct(shortcut) => {
            d.push(1);
            d.push(shortcut.part_count() as u64);
            for p in 0..shortcut.part_count() {
                let edges = shortcut.edges_of(lcs_graph::PartId::new(p));
                d.push(edges.len() as u64);
                for e in edges {
                    d.push(e.index() as u64);
                }
            }
        }
        QueryValue::Verify { good, block_counts } => {
            d.push(2);
            for &g in good {
                d.push(u64::from(g));
            }
            for &k in block_counts {
                d.push(k as u64);
            }
        }
        QueryValue::Quality(q) => {
            d.push(3);
            d.push(q.congestion as u64);
            d.push(q.dilation as u64);
            d.push(q.block_parameter as u64);
            for &k in &q.per_part_blocks {
                d.push(k as u64);
            }
        }
        QueryValue::Mst { edges, weight } => {
            d.push(4);
            d.push(*weight);
            for e in edges {
                d.push(e.index() as u64);
            }
        }
        QueryValue::Repair {
            shortcut,
            quality,
            good,
            repaired_parts,
            reused_parts,
        } => {
            d.push(5);
            d.push(*repaired_parts as u64);
            d.push(*reused_parts as u64);
            d.push(shortcut.part_count() as u64);
            for p in 0..shortcut.part_count() {
                let edges = shortcut.edges_of(lcs_graph::PartId::new(p));
                d.push(edges.len() as u64);
                for e in edges {
                    d.push(e.index() as u64);
                }
            }
            d.push(quality.congestion as u64);
            d.push(quality.dilation as u64);
            d.push(quality.block_parameter as u64);
            for &k in &quality.per_part_blocks {
                d.push(k as u64);
            }
            for &g in good {
                d.push(u64::from(g));
            }
        }
    }
    d.value()
}

impl Session<'_> {
    /// Serves one [`Query`] and returns only the `Copy` record: wall-clock
    /// nanoseconds plus the FNV-1a fingerprint of the result values. The
    /// result itself is dropped — this is the hot serving path of the
    /// `lcs_workload` drivers, which record latencies into histograms and
    /// chain digests without allocating per query.
    ///
    /// Any number of threads may serve queries on one warm session
    /// concurrently. Every query path behind this entry is `&self` —
    /// construction, verification and MST read the session's tree and
    /// configuration only, and quality measurements check a workspace out
    /// of the session's lock-protected pool bank for the duration of the
    /// query. Concurrency changes timings, never values. This is the entry
    /// point the `lcs_server` worker threads serve from.
    ///
    /// # Errors
    ///
    /// Exactly the errors of the underlying query method
    /// ([`Session::shortcut`], [`Session::verify`], [`Session::quality`],
    /// [`Session::mst`], [`Session::repair_from`]).
    pub fn serve_shared(&self, query: Query<'_>) -> LcsResult<Served> {
        self.serve_shared_full(query).map(|(served, _)| served)
    }

    /// [`Session::serve_shared`], additionally returning the owned result
    /// values. The [`Served`] record (including its digest) is identical to
    /// what [`Session::serve_shared`] produces for the same query, so a
    /// result-collecting driver and a digest-only driver agree exactly.
    ///
    /// # Errors
    ///
    /// Same as [`Session::serve_shared`].
    pub fn serve_shared_full(&self, query: Query<'_>) -> LcsResult<(Served, QueryValue)> {
        let probe_paths = self.obs.is_on().then(|| query.probe_paths());
        let start = Instant::now();
        let (wall_nanos, rounds_charged, all_good, value) = match query {
            Query::Construct {
                partition,
                strategy,
            } => {
                let run = self.shortcut(partition, strategy)?;
                let wall = start.elapsed().as_nanos() as u64;
                (
                    wall,
                    run.report.rounds_charged,
                    run.report.all_parts_good,
                    QueryValue::Construct(run.shortcut),
                )
            }
            Query::Verify {
                shortcut,
                partition,
                threshold,
            } => {
                let run = self.verify(shortcut, partition, threshold)?;
                let wall = start.elapsed().as_nanos() as u64;
                (
                    wall,
                    run.report.rounds_charged,
                    run.report.all_parts_good,
                    QueryValue::Verify {
                        good: run.good,
                        block_counts: run.block_counts,
                    },
                )
            }
            Query::Quality {
                shortcut,
                partition,
            } => {
                let quality = self.quality(shortcut, partition)?;
                let wall = start.elapsed().as_nanos() as u64;
                (wall, 0, true, QueryValue::Quality(quality))
            }
            Query::Mst { weights, strategy } => {
                let run = self.mst(weights, strategy)?;
                let wall = start.elapsed().as_nanos() as u64;
                (
                    wall,
                    run.report.rounds_charged,
                    true,
                    QueryValue::Mst {
                        edges: run.edges,
                        weight: run.weight,
                    },
                )
            }
            Query::Repair { baseline, delta } => {
                let run = self.repair_from(baseline, delta)?;
                let wall = start.elapsed().as_nanos() as u64;
                (
                    wall,
                    run.report.rounds_charged,
                    run.report.all_parts_good,
                    QueryValue::Repair {
                        shortcut: run.shortcut,
                        quality: run.quality,
                        good: run.good,
                        repaired_parts: run.repaired_parts,
                        reused_parts: run.reused_parts,
                    },
                )
            }
        };
        if let Some((queries, rounds, latency)) = probe_paths {
            self.obs.counter_add(queries, 1);
            self.obs.counter_add(rounds, rounds_charged);
            self.obs.timer_record(latency, wall_nanos);
        }
        Ok((
            Served {
                wall_nanos,
                digest: digest_of(&value),
                rounds_charged,
                all_good,
            },
            value,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use lcs_graph::generators;

    #[test]
    fn serve_and_serve_full_agree_on_digest_and_values() {
        let g = generators::grid(6, 6);
        let p = generators::partitions::grid_columns(6, 6);
        let session = Pipeline::on(&g).build().unwrap();
        let run = session.shortcut(&p, Strategy::doubling()).unwrap();
        let (_, b) = run.winning_guess().unwrap();

        for query in [
            Query::Construct {
                partition: &p,
                strategy: Strategy::doubling(),
            },
            Query::Verify {
                shortcut: &run.shortcut,
                partition: &p,
                threshold: 3 * b,
            },
            Query::Quality {
                shortcut: &run.shortcut,
                partition: &p,
            },
        ] {
            let (full, value) = session.serve_shared_full(query).unwrap();
            let light = session.serve_shared(query).unwrap();
            assert_eq!(full.digest, light.digest, "{query:?}");
            assert_eq!(full.rounds_charged, light.rounds_charged);
            assert_eq!(full.all_good, light.all_good);
            assert_eq!(full.digest, super::digest_of(&value));
        }
    }

    #[test]
    fn serve_values_match_the_dedicated_query_methods() {
        let g = generators::wheel(33);
        let p = generators::partitions::wheel_arcs(33, 4);
        let w = lcs_graph::EdgeWeights::random_permutation(&g, 5);
        let session = Pipeline::on(&g).seed(3).build().unwrap();

        let direct = session.shortcut(&p, Strategy::doubling()).unwrap();
        let (_, value) = session
            .serve_shared_full(Query::Construct {
                partition: &p,
                strategy: Strategy::doubling(),
            })
            .unwrap();
        assert_eq!(value, QueryValue::Construct(direct.shortcut.clone()));

        let direct_verify = session.verify(&direct.shortcut, &p, 3).unwrap();
        let (_, value) = session
            .serve_shared_full(Query::Verify {
                shortcut: &direct.shortcut,
                partition: &p,
                threshold: 3,
            })
            .unwrap();
        assert_eq!(
            value,
            QueryValue::Verify {
                good: direct_verify.good,
                block_counts: direct_verify.block_counts,
            }
        );

        let direct_quality = session.quality(&direct.shortcut, &p).unwrap();
        let (_, value) = session
            .serve_shared_full(Query::Quality {
                shortcut: &direct.shortcut,
                partition: &p,
            })
            .unwrap();
        assert_eq!(value, QueryValue::Quality(direct_quality));

        let direct_mst = session.mst(&w, crate::ShortcutStrategy::Doubling).unwrap();
        let (_, value) = session
            .serve_shared_full(Query::Mst {
                weights: &w,
                strategy: crate::ShortcutStrategy::Doubling,
            })
            .unwrap();
        assert_eq!(
            value,
            QueryValue::Mst {
                edges: direct_mst.edges,
                weight: direct_mst.weight,
            }
        );
    }

    #[test]
    fn serve_shared_is_byte_identical_to_the_exclusive_path_under_concurrency() {
        let g = generators::grid(6, 6);
        let p = generators::partitions::grid_columns(6, 6);
        let session = Pipeline::on(&g).seed(2).build().unwrap();
        let run = session.shortcut(&p, Strategy::doubling()).unwrap();
        let (_, b) = run.winning_guess().unwrap();
        let queries = [
            Query::Construct {
                partition: &p,
                strategy: Strategy::doubling(),
            },
            Query::Verify {
                shortcut: &run.shortcut,
                partition: &p,
                threshold: 3 * b,
            },
            Query::Quality {
                shortcut: &run.shortcut,
                partition: &p,
            },
        ];
        let want: Vec<u64> = queries
            .iter()
            .map(|q| session.serve_shared(*q).unwrap().digest)
            .collect();
        // Four threads hammer the same warm session; every thread must
        // observe the sequential digests.
        let session = &session;
        let queries = &queries;
        let per_thread: Vec<Vec<u64>> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    scope.spawn(move || {
                        queries
                            .iter()
                            .map(|q| session.serve_shared(*q).unwrap().digest)
                            .collect::<Vec<u64>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|handle| handle.join().expect("serving thread panicked"))
                .collect()
        });
        for digests in per_thread {
            assert_eq!(digests, want);
        }
    }

    #[test]
    fn different_results_produce_different_digests() {
        let g = generators::grid(5, 5);
        let columns = generators::partitions::grid_columns(5, 5);
        let rows = generators::partitions::grid_rows(5, 5);
        let session = Pipeline::on(&g).build().unwrap();
        let a = session
            .serve_shared(Query::Construct {
                partition: &columns,
                strategy: Strategy::doubling(),
            })
            .unwrap();
        let b = session
            .serve_shared(Query::Construct {
                partition: &rows,
                strategy: Strategy::doubling(),
            })
            .unwrap();
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn value_digest_is_order_sensitive() {
        let mut a = ValueDigest::new();
        a.push(1);
        a.push(2);
        let mut b = ValueDigest::new();
        b.push(2);
        b.push(1);
        assert_ne!(a.value(), b.value());
        assert_eq!(ValueDigest::new().value(), ValueDigest::default().value());
    }
}
