//! An independent reference evaluator for `I_d`, `I_MI` and `I_P`.
//!
//! It shares nothing with the program's violation engine: bindings are
//! enumerated over the raw fact values, with plain hash grouping on a
//! DC's cross-tuple equality predicates where it has any and brute force
//! otherwise; every candidate binding is decided by the public
//! [`DenialConstraint::forbidden`], and minimality is filtered here.

use inconsist::constraints::{CmpOp, ConstraintSet, DenialConstraint, Operand};
use inconsist::relational::{AttrId, Database, TupleId, Value};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Measures of one database under one constraint set.
#[derive(Clone, Debug, PartialEq)]
pub struct RefMeasures {
    pub i_d: f64,
    pub i_mi: f64,
    pub i_p: f64,
    /// `MI_Σ(D)`: every inclusion-minimal violating tuple set, sorted.
    pub minimal: Vec<Vec<TupleId>>,
}

impl RefMeasures {
    /// Largest minimal subset (the `k` of `I_R ≤ k · I_R^lin`).
    pub fn k_max(&self) -> usize {
        self.minimal.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Number of minimal subsets containing each tuple.
    pub fn subset_counts(&self) -> HashMap<TupleId, usize> {
        let mut out = HashMap::new();
        for s in &self.minimal {
            for &t in s {
                *out.entry(t).or_insert(0) += 1;
            }
        }
        out
    }
}

/// Evaluates `I_d`, `I_MI` and `I_P` of `db` under `cs`.
pub fn evaluate(db: &Database, cs: &ConstraintSet) -> RefMeasures {
    let mut raw: HashSet<Vec<TupleId>> = HashSet::new();
    for dc in cs.dcs() {
        violations(db, dc, &mut raw);
    }
    let minimal = minimal_only(raw);
    let problematic: BTreeSet<TupleId> = minimal.iter().flatten().copied().collect();
    RefMeasures {
        i_d: if minimal.is_empty() { 0.0 } else { 1.0 },
        i_mi: minimal.len() as f64,
        i_p: problematic.len() as f64,
        minimal,
    }
}

/// Rows of every atom's relation, as `(id, values)`.
fn rows_per_atom<'a>(db: &'a Database, dc: &DenialConstraint) -> Vec<Vec<(TupleId, &'a [Value])>> {
    dc.atoms
        .iter()
        .map(|a| {
            db.iter()
                .filter(|f| f.rel == a.rel)
                .map(|f| (f.id, f.values))
                .collect()
        })
        .collect()
}

/// Inserts the distinct tuples of every falsifying binding of `dc`.
fn violations(db: &Database, dc: &DenialConstraint, out: &mut HashSet<Vec<TupleId>>) {
    let rows = rows_per_atom(db, dc);
    let mut emit = |ids: &[TupleId]| {
        let mut set = ids.to_vec();
        set.sort();
        set.dedup();
        out.insert(set);
    };
    if dc.arity() == 2 {
        // Hash grouping: t'[b…] = t[a…] for every cross equality t.a = t'.b.
        let keys: Vec<(AttrId, AttrId)> = dc
            .predicates
            .iter()
            .filter(|p| p.op == CmpOp::Eq)
            .filter_map(|p| match (&p.lhs, &p.rhs) {
                (Operand::Attr { var: 0, attr: a }, Operand::Attr { var: 1, attr: b }) => {
                    Some((*a, *b))
                }
                (Operand::Attr { var: 1, attr: b }, Operand::Attr { var: 0, attr: a }) => {
                    Some((*a, *b))
                }
                _ => None,
            })
            .collect();
        if !keys.is_empty() {
            let mut groups: HashMap<Vec<&Value>, Vec<(TupleId, &[Value])>> = HashMap::new();
            for &(id, vals) in &rows[1] {
                let key = keys.iter().map(|(_, b)| &vals[b.idx()]).collect();
                groups.entry(key).or_default().push((id, vals));
            }
            for &(id0, v0) in &rows[0] {
                let key: Vec<&Value> = keys.iter().map(|(a, _)| &v0[a.idx()]).collect();
                for &(id1, v1) in groups.get(&key).map(Vec::as_slice).unwrap_or(&[]) {
                    if dc.forbidden(&[v0, v1]) {
                        emit(&[id0, id1]);
                    }
                }
            }
            return;
        }
    }
    // Brute force over every binding (odometer over the atoms' rows).
    let k = dc.arity();
    if rows.iter().any(Vec::is_empty) {
        return;
    }
    let mut idx = vec![0usize; k];
    let mut ids = vec![TupleId(0); k];
    let mut vals: Vec<&[Value]> = vec![&[]; k];
    loop {
        for i in 0..k {
            ids[i] = rows[i][idx[i]].0;
            vals[i] = rows[i][idx[i]].1;
        }
        if dc.forbidden(&vals) {
            emit(&ids);
        }
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            idx[i] += 1;
            if idx[i] < rows[i].len() {
                break;
            }
            idx[i] = 0;
        }
    }
}

/// Keeps the sets none of whose proper non-empty subsets is a violation.
fn minimal_only(raw: HashSet<Vec<TupleId>>) -> Vec<Vec<TupleId>> {
    let mut by_size: Vec<Vec<TupleId>> = raw.into_iter().collect();
    by_size.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
    let mut kept: HashSet<Vec<TupleId>> = HashSet::new();
    let mut out = Vec::new();
    for set in by_size {
        let n = set.len();
        let covered = (1..(1u64 << n) - 1).any(|mask| {
            let sub: Vec<TupleId> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| set[i])
                .collect();
            kept.contains(&sub)
        });
        if !covered {
            kept.insert(set.clone());
            out.push(set);
        }
    }
    out.sort();
    out
}

/// Fewest tuples whose deletion hits every set of `minimal` (`I_R` with
/// unit costs), by exhaustive search; tiny inputs only.
fn brute_min_deletions(minimal: &[Vec<TupleId>]) -> usize {
    let tuples: Vec<TupleId> = minimal
        .iter()
        .flatten()
        .copied()
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    assert!(tuples.len() <= 20, "brute force is for tiny inputs");
    (0u32..1 << tuples.len())
        .filter(|mask| {
            minimal.iter().all(|s| {
                s.iter()
                    .any(|t| mask & (1 << tuples.binary_search(t).expect("listed")) != 0)
            })
        })
        .map(u32::count_ones)
        .min()
        .unwrap_or(0) as usize
}

/// Checks the evaluator against the paper's Table 1 (Airport D1 and D2).
pub fn self_test() -> Result<(), String> {
    let cases = [
        ("D1", inconsist::paper::airport_d1(), (1.0, 7.0, 5.0, 3)),
        ("D2", inconsist::paper::airport_d2(), (1.0, 5.0, 4.0, 2)),
    ];
    for (name, (db, cs), (i_d, i_mi, i_p, i_r)) in cases {
        let got = evaluate(&db, &cs);
        let got_ir = brute_min_deletions(&got.minimal);
        if (got.i_d, got.i_mi, got.i_p, got_ir) != (i_d, i_mi, i_p, i_r) {
            return Err(format!(
                "{name}: I_d/I_MI/I_P/I_R = {}/{}/{}/{got_ir}, Table 1 says {i_d}/{i_mi}/{i_p}/{i_r}",
                got.i_d, got.i_mi, got.i_p
            ));
        }
    }
    let (d0, cs) = inconsist::paper::airport_d0();
    if evaluate(&d0, &cs).i_d != 0.0 {
        return Err("D0 is consistent but the evaluator finds a violation".into());
    }
    Ok(())
}
