//! End-to-end covert-channel behaviour (Figure 11's axes) and the defense
//! performance ordering (Figure 12's shape), as assertions.

use speculative_interference::attacks::attacks::{Attack, AttackKind};
use speculative_interference::attacks::channel::{
    bytes_to_bits, leak_bits, measure_point, random_bits,
};
use speculative_interference::cpu::MachineConfig;
use speculative_interference::schemes::SchemeKind;
use speculative_interference::workloads::{run, WorkloadKind};

#[test]
fn noise_free_channel_is_error_free_for_both_pocs() {
    let bits = random_bits(10, 3);
    for kind in [AttackKind::NpeuVdVd, AttackKind::IrsICache] {
        let attack = Attack::new(kind, SchemeKind::DomSpectre, MachineConfig::default());
        let p = measure_point(&attack, &bits, 1);
        assert_eq!(p.error_rate, 0.0, "{kind:?}");
        assert!(p.bit_rate_bps > 0.0);
    }
}

#[test]
fn noisy_channel_errors_shrink_with_repetitions() {
    let mut machine = MachineConfig::default();
    machine.noise.dram_jitter = 40;
    machine.noise.background_period = 16;
    machine.noise.burst_sets = true;
    let attack = Attack::new(AttackKind::NpeuVdVd, SchemeKind::DomSpectre, machine);
    let bits = random_bits(16, 9);
    let r1 = measure_point(&attack, &bits, 1);
    let r5 = measure_point(&attack, &bits, 5);
    // Small-sample tolerance: 16 bits quantize error in 1/16 steps.
    assert!(
        r5.error_rate <= r1.error_rate + 0.13,
        "majority voting must not make things notably worse: r1={} r5={}",
        r1.error_rate,
        r5.error_rate
    );
    assert!(r1.error_rate < 0.5, "channel must beat coin-flipping");
    assert!(
        r5.bit_rate_bps < r1.bit_rate_bps,
        "repetitions must cost throughput"
    );
}

#[test]
fn a_key_fragment_leaks_with_high_accuracy_under_noise() {
    // A 16-bit slice of the §4.4 experiment, kept small for CI time.
    let mut machine = MachineConfig::default();
    machine.noise.dram_jitter = 30;
    machine.noise.background_period = 200;
    let attack = Attack::new(AttackKind::IrsICache, SchemeKind::DomSpectre, machine);
    let bits = &bytes_to_bits(&[0x2b, 0x7e])[..16];
    let leak = leak_bits(&attack, bits, 1);
    assert!(
        leak.accuracy >= 0.8,
        "accuracy {:.2} below the paper's 80% operating point",
        leak.accuracy
    );
    assert!(leak.seconds > 0.0 && leak.bit_rate_bps > 0.0);
}

#[test]
fn defense_cost_ordering_matches_figure_12() {
    // Futuristic fences cost at least as much as Spectre fences, which
    // cost at least the unprotected baseline, on every kernel.
    let machine = MachineConfig::default();
    for kind in [
        WorkloadKind::PointerChase,
        WorkloadKind::Stream,
        WorkloadKind::HashProbe,
        WorkloadKind::Mixed,
    ] {
        let cycles = |scheme| {
            run(kind, 32, scheme, &machine)
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"))
                .cycles as f64
        };
        let base = cycles(SchemeKind::Unprotected);
        let spectre = cycles(SchemeKind::FenceSpectre) / base;
        let futuristic = cycles(SchemeKind::FenceFuturistic) / base;
        assert!(spectre >= 0.999, "{kind:?}: fence-spectre {spectre}");
        assert!(
            futuristic >= spectre - 1e-9,
            "{kind:?}: futuristic {futuristic} < spectre {spectre}"
        );
    }
}

#[test]
fn invisible_schemes_cost_less_than_fences() {
    // The economic argument for invisible speculation (§2.2): DoM keeps
    // most of the performance the fences give up.
    let machine = MachineConfig::default();
    let kind = WorkloadKind::Mixed;
    let base = run(kind, 48, SchemeKind::Unprotected, &machine).unwrap();
    let dom = run(kind, 48, SchemeKind::DomSpectre, &machine).unwrap();
    let fence = run(kind, 48, SchemeKind::FenceFuturistic, &machine).unwrap();
    let dom_slow = dom.cycles as f64 / base.cycles as f64;
    let fence_slow = fence.cycles as f64 / base.cycles as f64;
    assert!(
        dom_slow < fence_slow,
        "DoM ({dom_slow:.2}x) must be cheaper than futuristic fences ({fence_slow:.2}x)"
    );
}

#[test]
fn every_workload_verifies_under_every_scheme() {
    // Architectural correctness of the whole scheme zoo on real kernels
    // (small scale to keep CI time bounded).
    for kind in [
        WorkloadKind::PointerChase,
        WorkloadKind::BranchySort,
        WorkloadKind::Mixed,
    ] {
        for scheme in SchemeKind::all() {
            run(kind, 12, scheme, &MachineConfig::default())
                .unwrap_or_else(|e| panic!("{kind:?} under {}: {e}", scheme.label()));
        }
    }
}
