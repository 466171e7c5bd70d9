//! Covert-channel evaluation (Figure 11, §4.4).
//!
//! The sender/receiver pair from [`crate::attacks`] is driven as a real
//! channel: random bits are transmitted one trial at a time under noise
//! (DRAM jitter + background LLC traffic), with `r` repetitions per bit
//! and majority voting. Throughput is "number of secret bits transmitted
//! per unit time" (§4.4) at the paper's 3.6 GHz clock; error rate is
//! wrong bits over total bits. Sweeping `r` trades error for rate, which
//! generates the Figure 11 curves.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::attacks::Attack;

/// The simulated clock used to convert cycles to seconds (the paper's
/// Kaby Lake base frequency, §4.1).
pub const CLOCK_GHZ: f64 = 3.6;

/// One measured operating point of the channel.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ChannelPoint {
    /// Repetitions (trials) per transmitted bit.
    pub reps_per_bit: usize,
    /// Bits transmitted.
    pub bits: usize,
    /// Wrong bits / total bits.
    pub error_rate: f64,
    /// Mean simulated cycles consumed per bit (all repetitions).
    pub cycles_per_bit: f64,
    /// Throughput in bits per second at [`CLOCK_GHZ`].
    pub bit_rate_bps: f64,
}

/// Transmits `bits` with `reps` majority-voted trials per bit and
/// returns the decoded bits and the simulated cycles of every trial.
/// Trial `k` (counted across all bits) runs at noise seed
/// `seed + k + seed_offset`; undecodable trials abstain from the vote
/// (ties decode as 0).
fn transmit(attack: &Attack, bits: &[u64], reps: usize, seed_offset: u64) -> (Vec<u64>, u64) {
    let mut attack = attack.clone();
    attack.reference_delta = attack.resolved_reference_delta();
    let mut cycles = 0u64;
    let decoded = bits
        .iter()
        .enumerate()
        .map(|(i, bit)| {
            let mut votes = [0usize; 2];
            for r in 0..reps {
                // Decorrelate the noise across trials.
                let mut a = attack.clone();
                a.machine.noise.seed = attack
                    .machine
                    .noise
                    .seed
                    .wrapping_add((i * reps + r) as u64 + seed_offset);
                let t = a.run_trial(*bit);
                cycles += t.cycles;
                if let Some(d) = t.decoded {
                    votes[(d & 1) as usize] += 1;
                }
            }
            u64::from(votes[1] > votes[0])
        })
        .collect();
    (decoded, cycles)
}

/// Transmits `bits` through the channel with `reps` repetitions per bit
/// and majority voting; undecodable trials abstain from the vote (ties
/// decode as 0).
pub fn measure_point(attack: &Attack, bits: &[u64], reps: usize) -> ChannelPoint {
    assert!(reps > 0, "need at least one repetition per bit");
    let (decoded, total_cycles) = transmit(attack, bits, reps, 1);
    let errors = decoded.iter().zip(bits).filter(|(d, b)| d != b).count();
    let cycles_per_bit = total_cycles as f64 / bits.len() as f64;
    ChannelPoint {
        reps_per_bit: reps,
        bits: bits.len(),
        error_rate: errors as f64 / bits.len() as f64,
        cycles_per_bit,
        bit_rate_bps: CLOCK_GHZ * 1e9 / cycles_per_bit,
    }
}

/// Generates a reproducible random bit vector.
pub fn random_bits(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..2u64)).collect()
}

/// Result of leaking a multi-byte key (the §4.4 AES-128 demonstration).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct KeyLeak {
    /// The recovered bits.
    pub recovered: Vec<u64>,
    /// Fraction of bits recovered correctly.
    pub accuracy: f64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Wall time at [`CLOCK_GHZ`] in seconds.
    pub seconds: f64,
    /// Effective bit rate.
    pub bit_rate_bps: f64,
}

/// Leaks an arbitrary bit string through the channel (one trial per bit,
/// `reps` repetitions) and reports accuracy and timing — the harness for
/// the paper's "an AES-128 key can be leaked in under 0.3 s with 80%
/// accuracy" claim.
pub fn leak_bits(attack: &Attack, bits: &[u64], reps: usize) -> KeyLeak {
    let (recovered, cycles) = transmit(attack, bits, reps, 0);
    let correct = recovered.iter().zip(bits).filter(|(d, b)| d == b).count();
    let seconds = cycles as f64 / (CLOCK_GHZ * 1e9);
    KeyLeak {
        accuracy: correct as f64 / bits.len() as f64,
        bit_rate_bps: bits.len() as f64 / seconds,
        recovered,
        cycles,
        seconds,
    }
}

/// Expands bytes to a little-endian bit vector (helper for key material).
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u64> {
    bytes
        .iter()
        .flat_map(|b| (0..8).map(move |i| u64::from((b >> i) & 1)))
        .collect()
}

/// Collapses a bit vector (as produced by [`bytes_to_bits`]) back into
/// bytes.
pub fn bits_to_bytes(bits: &[u64]) -> Vec<u8> {
    bits.chunks(8)
        .map(|c| {
            c.iter()
                .enumerate()
                .fold(0u8, |acc, (i, b)| acc | (((*b & 1) as u8) << i))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_byte_roundtrip() {
        let bytes = [0xde, 0xad, 0xbe, 0xef, 0x01, 0x80];
        let bits = bytes_to_bits(&bytes);
        assert_eq!(bits.len(), 48);
        assert_eq!(bits_to_bytes(&bits), bytes.to_vec());
    }

    #[test]
    fn random_bits_are_reproducible() {
        assert_eq!(random_bits(64, 7), random_bits(64, 7));
        assert_ne!(random_bits(64, 7), random_bits(64, 8));
        assert!(random_bits(64, 7).iter().all(|b| *b < 2));
    }
}
