//! Committed sample-trace fixtures and their replay as workloads.
//!
//! Each [`SampleTrace`] names a `.sit` file under `traces/` recorded
//! from one of the benchmark kernels with `sia trace record` at the
//! default program seed (42) and recording parameters (interval length
//! 1024, at most 8 clusters, 4 warm-up intervals):
//!
//! ```text
//! sia trace record --workload mixed --scale 4000   # traces/mixed.sit
//! sia trace record --workload sort --scale 72      # traces/sort.sit
//! sia trace record --workload hash --scale 4000    # traces/hash.sit
//! ```
//!
//! A test re-records each kernel at its scale against the committed
//! bytes. The bytes are embedded at compile time, so trace workloads
//! need no filesystem access at run time and the harness can fold the
//! exact bytes' digest into engine cache keys.

use std::sync::Arc;

use si_engine::ArtifactCache;
use si_isa::Program;
use si_trace::{fnv1a64, TraceFile};

/// The committed sample traces, each recorded from a branchy kernel
/// (the interesting case for the `predictor=tage` axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum SampleTrace {
    /// Recorded from the `mixed` kernel (balanced loads/ALU/branches).
    Mixed,
    /// Recorded from the `sort` kernel (data-dependent branches).
    Sort,
    /// Recorded from the `hash` kernel (hit/miss branch mix).
    Hash,
}

impl SampleTrace {
    /// All committed traces, in presentation order.
    pub fn all() -> Vec<SampleTrace> {
        vec![SampleTrace::Mixed, SampleTrace::Sort, SampleTrace::Hash]
    }

    /// Workload label (`sia sweep` workload-axis value).
    pub fn label(self) -> &'static str {
        match self {
            SampleTrace::Mixed => "trace-mixed",
            SampleTrace::Sort => "trace-sort",
            SampleTrace::Hash => "trace-hash",
        }
    }

    /// The embedded `.sit` bytes.
    pub fn bytes(self) -> &'static [u8] {
        match self {
            SampleTrace::Mixed => include_bytes!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../traces/mixed.sit"
            )),
            SampleTrace::Sort => include_bytes!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../traces/sort.sit"
            )),
            SampleTrace::Hash => include_bytes!(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../traces/hash.sit"
            )),
        }
    }

    /// FNV-1a-64 digest of the embedded bytes. The harness XORs this
    /// into each trace unit's `config_digest`, so cached results are
    /// orphaned the moment a fixture is re-recorded.
    pub fn content_digest(self) -> u64 {
        fnv1a64(self.bytes())
    }

    /// Decodes the embedded trace.
    ///
    /// # Panics
    ///
    /// Panics if the committed fixture is corrupt — a build/fixture
    /// mismatch, not a runtime condition (`sia trace record` regenerates
    /// the files under `traces/`).
    pub fn decode(self) -> TraceFile {
        TraceFile::decode(self.bytes())
            .unwrap_or_else(|e| panic!("committed fixture {} is invalid: {e}", self.label()))
    }

    /// Decodes the embedded trace through the process-wide artifact
    /// cache (namespace `trace`, keyed by content digest): the first
    /// caller pays the decode, everyone else shares the `Arc`. With the
    /// cache disabled this decodes privately — same value either way.
    ///
    /// # Panics
    ///
    /// Same contract as [`SampleTrace::decode`].
    pub fn decode_shared(self) -> Arc<TraceFile> {
        ArtifactCache::global().get_or_build(
            "trace",
            &format!("{:016x}", self.content_digest()),
            || self.decode(),
        )
    }

    /// The trace's embedded program without decoding the stream
    /// sections (namespace `program`): `TraceFile::decode_program`
    /// validates the full payload checksum but parses only the program.
    /// Callers that need just the program (e.g. static gadget scans)
    /// skip the branch/memory/sampling decode entirely.
    ///
    /// # Panics
    ///
    /// Same contract as [`SampleTrace::decode`].
    pub fn program_shared(self) -> Arc<Program> {
        ArtifactCache::global().get_or_build(
            "program",
            &format!("{:016x}", self.content_digest()),
            || {
                TraceFile::decode_program(self.bytes()).unwrap_or_else(|e| {
                    panic!("committed fixture {} is invalid: {e}", self.label())
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadKind;
    use si_trace::RecordConfig;

    #[test]
    fn fixtures_decode_and_carry_sampling_plans() {
        for t in SampleTrace::all() {
            let trace = t.decode();
            assert!(trace.total_instr > 0, "{}", t.label());
            assert!(!trace.branches.is_empty(), "{}", t.label());
            assert!(
                !trace.samples.reps.is_empty(),
                "{} has no sampling plan",
                t.label()
            );
            assert_ne!(t.content_digest(), 0);
        }
    }

    /// Each committed fixture is exactly what `sia trace record` writes
    /// for its kernel and scale (the module docs' commands) today.
    #[test]
    fn fixtures_re_record_byte_for_byte() {
        let sources = [
            (SampleTrace::Mixed, WorkloadKind::Mixed, 4000),
            (SampleTrace::Sort, WorkloadKind::BranchySort, 72),
            (SampleTrace::Hash, WorkloadKind::HashProbe, 4000),
        ];
        assert_eq!(sources.len(), SampleTrace::all().len());
        for (t, kernel, scale) in sources {
            let trace = si_trace::record(&kernel.program(scale, 42), &RecordConfig::default())
                .expect("the kernel records");
            assert!(trace.encode() == t.bytes(), "{} drifted", t.label());
        }
    }

    #[test]
    fn digests_are_distinct_per_fixture() {
        let d: Vec<u64> = SampleTrace::all()
            .into_iter()
            .map(|t| t.content_digest())
            .collect();
        assert_ne!(d[0], d[1]);
        assert_ne!(d[1], d[2]);
        assert_ne!(d[0], d[2]);
    }
}
