//! Figures 3, 4, 5 — the gadget timelines: one traced noise-free trial
//! per secret value, reported as the attack-episode event window.

use si_core::attacks::AttackKind;
use si_cpu::{StallReason, TraceEvent};
use si_schemes::SchemeKind;

use super::traced_trial;
use crate::json::{arr, obj, Json};
use crate::{Experiment, RunCtx};

/// A timeline experiment: the traced episode of one attack kind under
/// one scheme, for both secret values.
pub struct Timeline {
    id: &'static str,
    title: &'static str,
    kind: AttackKind,
    scheme: SchemeKind,
    /// Episode window (cycles before / after the final squash).
    window: (u64, u64),
    /// Whether decode-queue fetch stalls are part of the story (Figure 5)
    /// or noise to filter (Figures 3–4).
    show_fetch_stalls: bool,
    /// Per-secret labels, index = secret.
    labels: [&'static str; 2],
}

/// Figure 3: `G^D_NPEU` delays the victim load's address generation.
pub fn fig03() -> Timeline {
    Timeline {
        id: "fig03",
        title: "G^D_NPEU attack timeline under DoM (Figure 3)",
        kind: AttackKind::NpeuVdVd,
        scheme: SchemeKind::DomSpectre,
        window: (400, 40),
        show_fetch_stalls: false,
        labels: [
            "transmitter misses -> DoM delays it; no interference",
            "transmitter hits -> gadget contends for the sqrt unit",
        ],
    }
}

/// Figure 4: `G^D_MSHR` exhausts the L1D MSHRs under InvisiSpec.
pub fn fig04() -> Timeline {
    Timeline {
        id: "fig04",
        title: "G^D_MSHR attack timeline under InvisiSpec (Figure 4)",
        kind: AttackKind::MshrVdAd,
        scheme: SchemeKind::InvisiSpecSpectre,
        window: (400, 120),
        show_fetch_stalls: false,
        labels: [
            "gadget loads share one line -> one MSHR, A unimpeded",
            "gadget loads hit distinct lines -> MSHRs exhausted, A stalls",
        ],
    }
}

/// Figure 5: `G^I_RS` congestion back-throttles the frontend.
pub fn fig05() -> Timeline {
    Timeline {
        id: "fig05",
        title: "G^I_RS frontend-throttling timeline under DoM (Figure 5)",
        kind: AttackKind::IrsICache,
        scheme: SchemeKind::DomSpectre,
        window: (400, 40),
        show_fetch_stalls: true,
        labels: [
            "transmitter hits -> ADDs drain, frontend reaches the target",
            "transmitter misses -> RS fills, decode queue fills, fetch stops",
        ],
    }
}

impl Experiment for Timeline {
    fn id(&self) -> &'static str {
        self.id
    }

    fn title(&self) -> &'static str {
        self.title
    }

    fn supports_scheme_override(&self) -> bool {
        true
    }

    fn run(&self, ctx: &RunCtx) -> Result<(Json, Json), String> {
        let scheme = ctx.scheme_or(self.scheme);
        let machine = ctx.machine();
        let mut episodes = Vec::new();
        let mut event_counts = [0usize; 2];
        let mut stall_counts = [0usize; 2];
        for secret in [0u64, 1] {
            let trace = traced_trial(self.kind, scheme, &machine, secret);
            if trace.is_empty() {
                return Err(format!("secret={secret}: traced trial produced no events"));
            }
            let (base, events) = episode_window(&trace, self.window.0, self.window.1);
            let mut lines = Vec::new();
            let mut stalls = 0usize;
            for (cycle, e) in &events {
                let is_queue_stall = matches!(
                    e,
                    TraceEvent::FetchStall {
                        reason: StallReason::QueueFull
                    }
                );
                if is_queue_stall {
                    stalls += 1;
                    if !self.show_fetch_stalls || stalls > 3 {
                        // Figures 3–4 filter frontend stalls entirely;
                        // Figure 5 shows the first few and counts the rest.
                        continue;
                    }
                } else if matches!(e, TraceEvent::FetchStall { .. }) && !self.show_fetch_stalls {
                    continue;
                }
                if let Some(text) = format_event(*cycle, base, e) {
                    lines.push(obj([
                        ("cycle", Json::from(*cycle - base)),
                        ("text", Json::from(text)),
                    ]));
                }
            }
            event_counts[secret as usize] = lines.len();
            stall_counts[secret as usize] = stalls;
            episodes.push(obj([
                ("secret", Json::from(secret)),
                ("label", Json::from(self.labels[secret as usize])),
                ("base_cycle", Json::from(base)),
                ("events", Json::Arr(lines)),
                ("queue_full_stall_cycles", Json::from(stalls)),
            ]));
        }
        let result = obj([
            ("scheme", Json::from(crate::scheme_slug(scheme))),
            ("attack", Json::from(self.kind.label())),
            (
                "window",
                arr([Json::from(self.window.0), Json::from(self.window.1)]),
            ),
            ("episodes", Json::Arr(episodes)),
        ]);
        let summary = obj([
            ("secret0_events", Json::from(event_counts[0])),
            ("secret1_events", Json::from(event_counts[1])),
            ("secret0_stall_cycles", Json::from(stall_counts[0])),
            ("secret1_stall_cycles", Json::from(stall_counts[1])),
        ]);
        Ok((result, summary))
    }
}

/// Formats one trace event for the timeline figures. Returns `None` for
/// event kinds the timelines don't display.
fn format_event(cycle: u64, base: u64, e: &TraceEvent) -> Option<String> {
    let t = cycle.saturating_sub(base);
    let s = match e {
        TraceEvent::Issue { seq, port } => format!("{t:>5}  issue        seq={seq} port={port}"),
        TraceEvent::LoadAccess {
            seq,
            addr,
            level,
            visible,
        } => format!(
            "{t:>5}  load-access  seq={seq} addr=0x{addr:x} level={level:?} {}",
            if *visible { "visible" } else { "invisible" }
        ),
        TraceEvent::LoadDelayed { seq, addr } => {
            format!("{t:>5}  load-DELAYED seq={seq} addr=0x{addr:x}")
        }
        TraceEvent::MshrStall { seq, addr } => {
            format!("{t:>5}  mshr-stall   seq={seq} addr=0x{addr:x}")
        }
        TraceEvent::Squash {
            branch_seq,
            squashed,
        } => format!("{t:>5}  SQUASH       branch={branch_seq} killed={squashed}"),
        TraceEvent::FetchStall { reason } => match reason {
            StallReason::QueueFull => format!("{t:>5}  fetch-stall  decode-queue-full"),
            StallReason::ICacheMiss => format!("{t:>5}  fetch-stall  icache-miss"),
            StallReason::NoInstruction => return None,
        },
        _ => return None,
    };
    Some(s)
}

/// Extracts the attack-episode window from a full-trial trace: everything
/// from shortly before the final squash (the attack iteration's
/// mis-speculation) to shortly after. Returns the window base cycle and
/// the contained events.
fn episode_window(
    trace: &[(u64, TraceEvent)],
    before: u64,
    after: u64,
) -> (u64, Vec<(u64, TraceEvent)>) {
    let squash_cycle = trace
        .iter()
        .rev()
        .find(|(_, e)| matches!(e, TraceEvent::Squash { squashed, .. } if *squashed > 0))
        .map(|(c, _)| *c)
        .unwrap_or_else(|| trace.last().map(|(c, _)| *c).unwrap_or(0));
    let lo = squash_cycle.saturating_sub(before);
    let hi = squash_cycle + after;
    let events = trace
        .iter()
        .filter(|(c, _)| *c >= lo && *c <= hi)
        .cloned()
        .collect();
    (lo, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_window_centers_on_last_squash() {
        let trace = vec![
            (10, TraceEvent::Fetch { pc: 0 }),
            (
                100,
                TraceEvent::Squash {
                    branch_seq: 1,
                    squashed: 3,
                },
            ),
            (150, TraceEvent::Fetch { pc: 8 }),
            (
                300,
                TraceEvent::Squash {
                    branch_seq: 9,
                    squashed: 5,
                },
            ),
            (320, TraceEvent::Fetch { pc: 16 }),
            (900, TraceEvent::Fetch { pc: 24 }),
        ];
        let (base, events) = episode_window(&trace, 50, 50);
        assert_eq!(base, 250);
        assert_eq!(events.len(), 2);
    }
}
