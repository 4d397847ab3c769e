//! The paper's qualitative findings (DESIGN.md §6), checked against
//! the committed figure CSVs under `results/`. Those files are what
//! `repro` regenerates byte for byte, so a finding that stops holding
//! here means the code changed the reproduced figure.

use std::collections::BTreeMap;
use std::path::Path;

/// `x -> (series -> mean_ms)` for one committed figure CSV.
fn means_by_size(file: &str) -> BTreeMap<u32, BTreeMap<String, f64>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("series,x,mean_ms,stddev_ms,min_ms,max_ms"),
        "{file}: unexpected header"
    );
    let mut out: BTreeMap<u32, BTreeMap<String, f64>> = BTreeMap::new();
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        assert_eq!(cols.len(), 6, "{file}: malformed row `{line}`");
        let x = cols[1].parse().expect("x is an integer");
        let mean = cols[2].parse().expect("mean_ms is a number");
        out.entry(x).or_default().insert(cols[0].to_string(), mean);
    }
    assert!(!out.is_empty(), "{file} has no rows");
    out
}

/// Asserts that `series` has the highest `mean_ms` of every series at
/// each group size `n >= min_n`.
fn assert_slowest(file: &str, series: &str, min_n: u32) {
    for (n, row) in means_by_size(file).range(min_n..) {
        let (slowest, _) = row
            .iter()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one series per size");
        assert_eq!(slowest, series, "{file}, n={n}: {row:?}");
    }
}

/// §6 item 3: on the LAN with 1024-bit DH, GDH's join is the slowest
/// (it is exponentiation-bound).
#[test]
fn gdh_is_slowest_lan_join_at_1024() {
    assert_slowest("fig11_join_lan_1024.csv", "GDH", 0);
}

/// §6 item 4: on the LAN with 1024-bit DH, STR's leave is the slowest
/// once the group has at least five members.
#[test]
fn str_is_slowest_lan_leave_at_1024() {
    assert_slowest("fig12_leave_lan_1024.csv", "STR", 5);
}
