//! Property test of the shared-session serving contract: M threads
//! hammering one `Session` through `serve_shared` must produce exactly
//! the digests a sequential one-thread replay produces — per trace
//! slot, not just as a multiset — across four graph families and both
//! engines (`Threads::Fixed(1)` and `Fixed(4)`).
//!
//! This is the concurrency half of the checkout-pool refactor's proof
//! obligation: workspace checkout order varies run to run under thread
//! scheduling, so any pool-identity leak into result values would show
//! up here as a digest mismatch.

use std::sync::OnceLock;

use lcs_api::{Pipeline, Threads};
use lcs_workload::{
    generate_trace, query_of, Corpus, CorpusSpec, Family, Mode, QueryMix, WorkloadSpec,
};
use proptest::prelude::*;

const FAMILIES: [Family; 4] = [Family::Grid, Family::Torus, Family::Random, Family::Wheel];
const ENGINES: [usize; 2] = [1, 4];

/// Corpora are expensive to build; share one per family across cases.
fn corpus(family_index: usize) -> &'static Corpus {
    static CORPORA: OnceLock<Vec<Corpus>> = OnceLock::new();
    &CORPORA.get_or_init(|| {
        FAMILIES
            .iter()
            .map(|&family| {
                Corpus::build(&CorpusSpec {
                    family,
                    size: 5,
                    entries: 3,
                    seed: 29,
                })
                .expect("corpus builds")
            })
            .collect()
    })[family_index]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn hammering_one_shared_session_matches_sequential_replay(
        family_index in 0usize..4,
        engine_index in 0usize..2,
        hammers in 2usize..5,
        seed in 1u64..10_000,
    ) {
        let corpus = corpus(family_index);
        let spec = WorkloadSpec::new(
            Mode::Closed { clients: 1, think_nanos: 0 },
            24,
            1.0,
            QueryMix::mixed(),
            seed,
        );
        let trace = generate_trace(&spec, corpus.len()).unwrap();
        let session = Pipeline::on(corpus.graph())
            .seed(seed)
            .threads(Threads::Fixed(ENGINES[engine_index]))
            .build()
            .unwrap();

        // M threads round-robin the trace through `&self`.
        let mut concurrent = vec![0u64; trace.len()];
        {
            let session = &session;
            let trace = &trace;
            let slots: Vec<(usize, Vec<(usize, u64)>)> = std::thread::scope(|scope| {
                (0..hammers)
                    .map(|hammer| {
                        scope.spawn(move || {
                            (hammer, trace
                                .iter()
                                .enumerate()
                                .skip(hammer)
                                .step_by(hammers)
                                .map(|(slot, event)| {
                                    let served = session
                                        .serve_shared(query_of(corpus, event))
                                        .expect("shared serve succeeds");
                                    (slot, served.digest)
                                })
                                .collect())
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|handle| handle.join().expect("hammer thread panicked"))
                    .collect()
            });
            for (_, samples) in slots {
                for (slot, digest) in samples {
                    concurrent[slot] = digest;
                }
            }
        }

        // The same trace, sequentially, on one thread.
        let sequential: Vec<u64> = trace
            .iter()
            .map(|event| session.serve_shared(query_of(corpus, event)).unwrap().digest)
            .collect();

        prop_assert_eq!(concurrent, sequential);
    }
}
