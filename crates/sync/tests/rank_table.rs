//! Pins the hierarchy table of DESIGN.md §7 to `src/rank.rs`: every rank
//! constant has a row with its own order and may-block flag, and the table
//! has no other rows.

use std::fs;
use std::path::Path;

#[test]
fn design_doc_rank_table_matches_rank_rs() {
    let crate_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ranks = fs::read_to_string(crate_dir.join("src/rank.rs")).unwrap();
    let design = fs::read_to_string(crate_dir.join("../../DESIGN.md")).unwrap();

    // `pub const NAME: LockRank = LockRank::new(N, "…");`, possibly wrapped
    // after the `=`, possibly ending `.may_block();`.
    let constants: Vec<(&str, &str, &str)> = ranks
        .split("pub const ")
        .skip(1)
        .filter_map(|item| {
            let (name, rest) = item.split_once(": LockRank")?;
            let (_, args) = rest.split_once("LockRank::new(")?;
            let (order, rest) = args.split_once(',')?;
            let (_, tail) = rest.split_once(')')?;
            let (tail, _) = tail.split_once(';')?;
            let may_block = if tail.trim() == ".may_block()" {
                "yes"
            } else {
                "no"
            };
            Some((name, order, may_block))
        })
        .collect();
    assert!(
        constants.len() >= 30,
        "found only {} rank constants in rank.rs",
        constants.len()
    );

    let section = design
        .split_once("## 7. Concurrency discipline")
        .and_then(|(_, rest)| rest.split_once("\n## 8."))
        .map(|(section, _)| section)
        .expect("DESIGN.md has a §7 followed by a §8");
    let rows: Vec<&str> = section
        .lines()
        .filter(|l| {
            l.strip_prefix("| ")
                .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
                && l.contains(" | `")
        })
        .collect();
    for (name, order, may_block) in &constants {
        let row = format!("| {order} | `{name}` | {may_block} |");
        assert!(
            rows.iter().any(|l| l.starts_with(&row)),
            "DESIGN.md §7 has no row `{row}` for rank.rs's {name}"
        );
    }
    assert_eq!(
        rows.len(),
        constants.len(),
        "DESIGN.md §7 lists ranks that rank.rs does not define"
    );
}
