//! The four workloads. Each one prepares its inputs from `--seed`, sets
//! up several times, runs whole passes for `--seconds` and checks every
//! output outside the timed sections.

pub mod audit;
pub mod clean;
pub mod progress;
pub mod serve;

use crate::harness::{close, expect};
use crate::reference::RefMeasures;
use inconsist::measures::MeasureOptions;
use inconsist::IncrementalIndex;

/// `I_MI`, `I_P`, `I_R` and `I_R^lin`, the four measures a progress
/// step reads (a failed measure reads NaN and fails its check).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Four {
    pub i_mi: f64,
    pub i_p: f64,
    pub i_r: f64,
    pub i_r_lin: f64,
}

/// The measure names the server takes for [`Four`].
pub const FOUR_NAMES: [&str; 4] = ["I_MI", "I_P", "I_R", "I_R^lin"];

impl Four {
    /// Reads the four measures from a live index.
    pub fn read(idx: &mut IncrementalIndex, options: &MeasureOptions) -> Four {
        Four {
            i_mi: idx.i_mi(),
            i_p: idx.i_p(),
            i_r: idx.i_r(options).unwrap_or(f64::NAN),
            i_r_lin: idx.i_r_lin().unwrap_or(f64::NAN),
        }
    }

    pub fn is_zero(&self) -> bool {
        self.i_mi == 0.0 && self.i_p == 0.0 && self.i_r == 0.0 && self.i_r_lin == 0.0
    }

    /// Checks the values against the reference evaluator and the
    /// inequalities `I_R^lin ≤ I_R ≤ min(I_MI, I_P)` and
    /// `I_R ≤ k_max · I_R^lin`.
    pub fn check(&self, reference: &RefMeasures, what: &str, errors: &mut Vec<String>) {
        expect(errors, self.i_mi == reference.i_mi, || {
            format!("{what}: I_MI {} != reference {}", self.i_mi, reference.i_mi)
        });
        expect(errors, self.i_p == reference.i_p, || {
            format!("{what}: I_P {} != reference {}", self.i_p, reference.i_p)
        });
        let eps = 1e-6;
        let ordered = self.i_r_lin <= self.i_r + eps
            && self.i_r <= self.i_mi.min(self.i_p) + eps
            && self.i_r <= reference.k_max() as f64 * self.i_r_lin + eps;
        expect(errors, ordered, || {
            format!(
                "{what}: I_R^lin {} <= I_R {} <= min(I_MI, I_P) and I_R <= {}·I_R^lin violated",
                self.i_r_lin,
                self.i_r,
                reference.k_max()
            )
        });
    }

    /// Whether two readings agree up to float rounding.
    pub fn same(&self, other: &Four) -> bool {
        close(self.i_mi, other.i_mi)
            && close(self.i_p, other.i_p)
            && close(self.i_r, other.i_r)
            && close(self.i_r_lin, other.i_r_lin)
    }
}
