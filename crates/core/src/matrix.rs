//! The vulnerability matrix (Table 1).
//!
//! For every (invisible-speculation scheme × attack) pair, run one trial
//! per secret value in a noise-free machine and record whether the
//! receiver decoded both correctly — the operational definition of "the
//! covert channel exists".

use si_cpu::MachineConfig;
use si_schemes::SchemeKind;

use crate::attacks::{Attack, AttackKind};

/// One cell of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixCell {
    /// The scheme under attack.
    pub scheme: SchemeKind,
    /// The attack.
    pub attack: AttackKind,
    /// Whether both secret values decoded correctly.
    pub leaks: bool,
    /// The raw decodes for secrets 0 and 1.
    pub decoded: [Option<u64>; 2],
}

/// Runs one cell.
pub fn run_cell(
    scheme: SchemeKind,
    attack_kind: AttackKind,
    machine: &MachineConfig,
) -> MatrixCell {
    let mut cfg = machine.clone();
    cfg.noise.dram_jitter = 0;
    cfg.noise.background_period = 0;
    let mut attack = Attack::new(attack_kind, scheme, cfg);
    // Calibrate once per cell so both trials share the reference time.
    attack.reference_delta = attack.resolved_reference_delta();
    let d0 = attack.run_trial(0).decoded;
    let d1 = attack.run_trial(1).decoded;
    MatrixCell {
        scheme,
        attack: attack_kind,
        leaks: d0 == Some(0) && d1 == Some(1),
        decoded: [d0, d1],
    }
}

/// Renders the matrix as an aligned text table (schemes as rows, attacks
/// as columns, `X` marking a working covert channel).
pub fn render_matrix(
    cells: &[MatrixCell],
    schemes: &[SchemeKind],
    attacks: &[AttackKind],
) -> String {
    let mut out = String::new();
    let name_w = schemes
        .iter()
        .map(|s| s.label().len())
        .max()
        .unwrap_or(8)
        .max(8);
    out.push_str(&format!("{:name_w$}", "scheme"));
    for a in attacks {
        out.push_str(&format!(" | {:^18}", a.label()));
    }
    out.push('\n');
    out.push_str(&"-".repeat(name_w + attacks.len() * 21));
    out.push('\n');
    for s in schemes {
        out.push_str(&format!("{:name_w$}", s.label()));
        for a in attacks {
            let cell = cells
                .iter()
                .find(|c| c.scheme == *s && c.attack == *a)
                .expect("cell computed");
            out.push_str(&format!(
                " | {:^18}",
                if cell.leaks { "X (leaks)" } else { "-" }
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_produces_a_row_per_scheme() {
        let schemes = [SchemeKind::DomSpectre, SchemeKind::FenceSpectre];
        let attacks = [AttackKind::SpectreV1];
        let cells = vec![
            MatrixCell {
                scheme: SchemeKind::DomSpectre,
                attack: AttackKind::SpectreV1,
                leaks: false,
                decoded: [None, None],
            },
            MatrixCell {
                scheme: SchemeKind::FenceSpectre,
                attack: AttackKind::SpectreV1,
                leaks: true,
                decoded: [Some(0), Some(1)],
            },
        ];
        let text = render_matrix(&cells, &schemes, &attacks);
        assert!(text.contains("DoM (Spectre)"));
        assert!(text.contains("X (leaks)"));
        assert_eq!(text.lines().count(), 4);
    }
}
