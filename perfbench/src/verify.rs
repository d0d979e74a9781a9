//! Report correctness checks.
//!
//! Every report is parsed and its shape checked against its spec. At the
//! seeds they were recorded at, reports must also match the FNV-1a-64
//! digests of their JSON and CSV renderings in [`EXPECTED`], and `fig3`
//! must equal the repository's committed baseline byte for byte.

use dcn_scenarios::diff::{parse_json, Json};

/// The expected digests of one report.
#[derive(Clone, Copy, Debug)]
pub struct Expected {
    /// Builtin name.
    pub name: &'static str,
    /// Seed the digest holds at; `None` for builtins without a seed grid,
    /// whose reports do not depend on the seed.
    pub seed: Option<u64>,
    /// `fnv1a64` of the JSON rendering.
    pub json: u64,
    /// `fnv1a64` of the CSV rendering.
    pub csv: u64,
}

/// Digests recorded with `--print-digests` at [`crate::DEFAULT_SEED`].
pub const EXPECTED: &[Expected] = &[
    Expected {
        name: "fig3",
        seed: None,
        json: 0xc1171bbdca1935df,
        csv: 0xf37d9baa8febb4e5,
    },
    Expected {
        name: "fig4",
        seed: None,
        json: 0x64b0ffb835d54ffb,
        csv: 0x64255030ca2ffd9d,
    },
    Expected {
        name: "fig6",
        seed: Some(42),
        json: 0x0cfb7c5b2f6f83a2,
        csv: 0x33c35da9d7676330,
    },
    Expected {
        name: "fig7",
        seed: Some(42),
        json: 0x2701db9b36fdaa6c,
        csv: 0x4dda10c7159f99ac,
    },
    Expected {
        name: "fig8",
        seed: None,
        json: 0x79f2ac5ba45a0702,
        csv: 0x921f5d52df9b66e8,
    },
    Expected {
        name: "fattree-100k",
        seed: Some(42),
        json: 0x2a3c58b686e3dd21,
        csv: 0x4ff84cc1ffbda4ce,
    },
];

/// The committed `fig3` baseline report.
const FIG3_BASELINE: &str = include_str!("../../crates/scenarios/tests/fig3_baseline.json");

/// Check the shape of one rendered report of builtin `name`, with
/// `points` points or entries, and for `fig3` its bytes against the
/// committed baseline.
pub fn check_report(name: &str, points: usize, json: &str, csv: &str) -> Result<(), String> {
    let doc = parse_json(json).map_err(|e| format!("{name}: report JSON does not parse: {e}"))?;
    let Json::Obj(fields) = &doc else {
        return Err(format!("{name}: report JSON is not an object"));
    };
    let field = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
    if field("scenario") != Some(&Json::Str(name.to_string())) {
        return Err(format!("{name}: report names another scenario"));
    }
    let rows = match (field("points"), field("entries")) {
        (Some(Json::Arr(a)), _) | (None, Some(Json::Arr(a))) => a.len(),
        _ => return Err(format!("{name}: report has no points or entries")),
    };
    if rows != points {
        return Err(format!(
            "{name}: report has {rows} rows, spec expands to {points}"
        ));
    }
    if csv.lines().count() < 2 {
        return Err(format!("{name}: CSV has no data rows"));
    }
    if name == "fig3" && json != FIG3_BASELINE {
        return Err("fig3: report differs from crates/scenarios/tests/fig3_baseline.json".into());
    }
    Ok(())
}

/// The JSON and CSV digests of a report of builtin `name`, run at `seed`
/// (`None` when the spec has no seed grid), must match every entry of
/// `expected` recorded for it.
pub fn check_digests(
    name: &str,
    seed: Option<u64>,
    digests: (u64, u64),
    expected: &[Expected],
) -> Result<(), String> {
    for e in expected.iter().filter(|e| e.name == name) {
        if e.seed.is_some() && e.seed != seed {
            continue;
        }
        if digests != (e.json, e.csv) {
            return Err(format!(
                "{name}: digests json {:016x} csv {:016x}, expected {:016x} {:016x}",
                digests.0, digests.1, e.json, e.csv
            ));
        }
    }
    Ok(())
}

/// Two renderings of the same spec must be byte-identical.
pub fn same(what: &str, a: &str, b: &str) -> Result<(), String> {
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "{what}: reports differ ({} vs {} bytes)",
            a.len(),
            b.len()
        ))
    }
}
