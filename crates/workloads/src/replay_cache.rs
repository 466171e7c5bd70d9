//! Cached sampled replay: the trace hot path, wired through the
//! process-wide [`si_engine::ArtifactCache`].
//!
//! A sweep over the trace grid replays the same handful of committed
//! `.sit` fixtures under every (scheme, predictor, trial) cell. The
//! monolithic [`si_trace::replay_sampled`] re-pays three costs per
//! cell that depend only on the trace (or on the trace plus the cell's
//! machine shape): decoding the `.sit` payload, the interpreter
//! fast-forward that builds the [`ReplayPlan`], and the machine warm-up
//! and simulation per representative interval. [`replay_trace_cached`]
//! shares each of them at its natural granularity:
//!
//! | namespace    | key                                            | artifact |
//! |--------------|------------------------------------------------|----------|
//! | `trace`      | fixture content digest                         | decoded [`TraceFile`] (see [`SampleTrace::decode_shared`](crate::SampleTrace::decode_shared)) |
//! | `program`    | fixture content digest                         | program-only decode (see [`SampleTrace::program_shared`](crate::SampleTrace::program_shared)) |
//! | `plan`       | trace content digest                           | [`ReplayPlan`] build result |
//! | `interval`   | trace digest · interval · config fingerprint (noise seed zeroed) · scheme label · cycle budget | simulated interval outcome ([`CoreStats`]) |
//!
//! Correctness invariant: **cached and uncached replay are
//! byte-identical.** The plan is a pure function of the trace; interval
//! outcomes are memoized only when they provably do not depend on the
//! unit's seed — checkpointing not disabled and the noise model quiet
//! (`dram_jitter == 0` and `background_period == 0`), so no RNG stream
//! is ever drawn. Noisy or checkpoint-averse configs silently take the
//! uncached warm-up, same results, no stale sharing. Per-unit noise
//! seeds stay out of the memo key (the fingerprint is taken with
//! `noise.seed = 0`), so all trials of a cell share one outcome per
//! interval. A memo miss warms its machine from the plan directly: the
//! warmed machine is needed once per key, so keeping it for forking
//! would only hold memory.

use std::sync::Arc;

use si_cpu::{CoreStats, MachineConfig};
use si_engine::ArtifactCache;
use si_schemes::SchemeKind;
use si_trace::{fnv1a64, ReplayError, ReplayOutcome, ReplayPlan, TraceFile};

/// Fetches (building at most once per process) the shared
/// [`ReplayPlan`] for a trace whose content digest is `digest`.
/// Build errors are cached too — a corrupt trace fails fast on every
/// call instead of re-running the fast-forward.
///
/// # Errors
///
/// Propagates [`ReplayPlan::build`] errors.
pub fn shared_plan(trace: &TraceFile, digest: u64) -> Result<Arc<ReplayPlan>, ReplayError> {
    let slot: Arc<Result<Arc<ReplayPlan>, ReplayError>> =
        ArtifactCache::global().get_or_build("plan", &format!("{digest:016x}"), || {
            ReplayPlan::build(trace).map(Arc::new)
        });
    match slot.as_ref() {
        Ok(plan) => Ok(Arc::clone(plan)),
        Err(e) => Err(e.clone()),
    }
}

/// Whether a memoized interval outcome is byte-equivalent to simulating
/// the interval under `config` (see module docs).
fn interval_memo_eligible(cache: &ArtifactCache, config: &MachineConfig) -> bool {
    cache.enabled()
        && !config.disable_checkpoint
        && config.noise.dram_jitter == 0
        && config.noise.background_period == 0
}

/// Sampled replay of `trace` under `scheme`, sharing the replay plan
/// and (when provably safe) per-interval outcomes across calls.
/// Cycle-for-cycle identical to
/// [`si_trace::replay_sampled`] with the same arguments — caching
/// changes wall-clock time, never results.
///
/// `digest` must be the trace's content digest (for the committed
/// fixtures, [`SampleTrace::content_digest`](crate::SampleTrace::content_digest));
/// it keys every artifact this function shares.
///
/// # Errors
///
/// Same contract as [`si_trace::replay_sampled`].
pub fn replay_trace_cached(
    trace: &TraceFile,
    digest: u64,
    scheme: SchemeKind,
    config: &MachineConfig,
    max_cycles: u64,
) -> Result<ReplayOutcome, ReplayError> {
    if trace.samples.reps.is_empty() {
        return si_trace::replay_full(trace, config, scheme.build(), max_cycles);
    }
    let cache = ArtifactCache::global();
    let plan = shared_plan(trace, digest)?;
    if !interval_memo_eligible(cache, config) {
        return si_trace::replay_planned(&plan, config, &|| scheme.build(), max_cycles);
    }
    // Outcomes are keyed by the canonical config (per-unit noise seed
    // zeroed): under a quiet noise model neither RNG stream is ever
    // drawn — `dram_jitter == 0` skips the DRAM jitter draw and
    // `background_period == 0` returns before the background agent's
    // draws — so warm-up and simulation are exactly seed-independent and
    // all trials of a cell may share one simulated outcome.
    let mut canon = config.clone();
    canon.noise.seed = 0;
    let cfg_fp = fnv1a64(canon.fingerprint().as_bytes());
    let mut est_cycles = 0u64;
    let mut simulated_instr = 0u64;
    let mut intervals_run = 0u64;
    for idx in 0..plan.intervals.len() {
        // The simulated interval outcome is memoized per
        // (trace, interval, config, scheme, budget) — the in-process
        // analogue of the unit store's whole-unit memoization. The budget
        // joins the key because it decides timeouts.
        let key = format!(
            "{digest:016x}:{idx}:{cfg_fp:016x}:{}:{max_cycles}",
            scheme.label()
        );
        let outcome: Arc<Result<CoreStats, ReplayError>> =
            cache.get_or_build("interval", &key, || {
                let mut m = plan.warm_machine(idx, config, scheme.build());
                plan.run_interval(idx, &mut m, max_cycles)
            });
        let stats = match outcome.as_ref() {
            Ok(stats) => *stats,
            Err(e) => return Err(e.clone()),
        };
        est_cycles += stats.cycles * plan.intervals[idx].cluster_size;
        simulated_instr += stats.retired;
        intervals_run += 1;
    }
    Ok(ReplayOutcome {
        cycles: est_cycles,
        simulated_instr,
        intervals_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SampleTrace;

    const BUDGET: u64 = 30_000_000;

    /// The core identity: cached replay (cold cache, then warm cache)
    /// matches the uncached staged implementation field for field.
    #[test]
    fn cached_replay_matches_uncached_cold_and_warm() {
        let t = SampleTrace::Mixed;
        let trace = t.decode();
        let digest = t.content_digest();
        let config = MachineConfig::default();
        for scheme in [SchemeKind::Unprotected, SchemeKind::DomSpectre] {
            let reference =
                si_trace::replay_sampled(&trace, &config, &|| scheme.build(), BUDGET).unwrap();
            let cold = replay_trace_cached(&trace, digest, scheme, &config, BUDGET).unwrap();
            let warm = replay_trace_cached(&trace, digest, scheme, &config, BUDGET).unwrap();
            assert_eq!(cold, reference, "{scheme:?} cold-cache replay diverged");
            assert_eq!(warm, reference, "{scheme:?} warm-cache replay diverged");
        }
    }

    /// Memoized outcomes must stay seed-faithful: two different unit
    /// seeds share the same memoized interval outcomes and must match
    /// from-scratch replay for each seed.
    #[test]
    fn interval_memo_is_seed_faithful() {
        let t = SampleTrace::Sort;
        let trace = t.decode();
        let digest = t.content_digest();
        for seed in [7u64, 8u64] {
            let mut config = MachineConfig::default();
            config.noise.seed = seed;
            let reference = si_trace::replay_sampled(
                &trace,
                &config,
                &|| SchemeKind::Unprotected.build(),
                BUDGET,
            )
            .unwrap();
            let cached =
                replay_trace_cached(&trace, digest, SchemeKind::Unprotected, &config, BUDGET)
                    .unwrap();
            assert_eq!(
                cached, reference,
                "seed {seed} diverged through the interval memo"
            );
        }
    }

    /// Concurrent cached replays from many threads agree with the
    /// single-threaded result — the N-thread half of the determinism
    /// invariant.
    #[test]
    fn cached_replay_is_thread_count_independent() {
        let t = SampleTrace::Hash;
        let trace = Arc::new(t.decode());
        let digest = t.content_digest();
        let config = MachineConfig::default();
        let scheme = SchemeKind::DomSpectre;
        let reference = replay_trace_cached(&trace, digest, scheme, &config, BUDGET).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let trace = Arc::clone(&trace);
                let config = config.clone();
                std::thread::spawn(move || {
                    replay_trace_cached(&trace, digest, scheme, &config, BUDGET).unwrap()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), reference);
        }
    }

    /// A noisy config must bypass the interval memo (its outcome depends
    /// on the seed) and still produce correct, deterministic results.
    #[test]
    fn noisy_configs_bypass_the_interval_memo_and_stay_correct() {
        let t = SampleTrace::Mixed;
        let trace = t.decode();
        let digest = t.content_digest();
        let mut config = MachineConfig::default();
        config.noise.dram_jitter = 3;
        config.noise.seed = 11;
        let reference =
            si_trace::replay_sampled(&trace, &config, &|| SchemeKind::Unprotected.build(), BUDGET)
                .unwrap();
        let a =
            replay_trace_cached(&trace, digest, SchemeKind::Unprotected, &config, BUDGET).unwrap();
        let b =
            replay_trace_cached(&trace, digest, SchemeKind::Unprotected, &config, BUDGET).unwrap();
        assert_eq!(a, reference);
        assert_eq!(b, reference);
    }
}
