//! `figures` — regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p pm-bench --bin figures -- --all
//! cargo run --release -p pm-bench --bin figures -- --fig7 --fig9
//! ```

use pm_bench::figures;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "--all");
    let want = |flag: &str| all || args.iter().any(|a| a == flag);

    if want("--table1") {
        figures::table1();
        println!();
    }
    if want("--table2") {
        figures::table2();
        println!();
    }
    if want("--table3") {
        figures::table3();
        println!();
    }
    if want("--table4") {
        figures::table4();
        println!();
    }
    if want("--fig7") || want("--fig8") || want("--fig9") {
        let results = figures::evaluate_suite();
        if want("--fig7") {
            figures::fig7(&results);
            println!();
        }
        if want("--fig8") {
            figures::fig8(&results);
            println!();
        }
        if want("--fig9") {
            figures::fig9(&results);
            println!();
        }
    }
    if want("--fig10") {
        figures::fig10();
        println!();
    }
    if want("--fig11") {
        figures::fig11();
        println!();
    }
    if want("--fig12") {
        figures::fig12();
        println!();
    }
    if want("--fig13") {
        figures::fig13();
        println!();
    }
    // Extensions beyond the paper (not part of --all).
    if args.iter().any(|a| a == "--dse") {
        figures::dse();
        println!();
    }
    if args.iter().any(|a| a == "--portability") {
        figures::portability();
        println!();
    }
    if args.iter().any(|a| a == "--extensions") {
        figures::extensions();
        println!();
    }
    if let Some(pos) = args.iter().position(|a| a == "--csv") {
        let path = args
            .get(pos + 1)
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::path::PathBuf::from("figures.csv"));
        let results = figures::evaluate_suite();
        figures::write_csv(&results, &path).expect("write csv");
        println!("wrote {}", path.display());
    }
}
