//! `lvrm-exp`: regenerate the paper's figures.
//!
//! ```sh
//! cargo run --release -p lvrm-bench --bin lvrm-exp -- --list
//! cargo run --release -p lvrm-bench --bin lvrm-exp -- exp1a
//! cargo run --release -p lvrm-bench --bin lvrm-exp -- all
//! LVRM_EXP_FULL=1 cargo run --release -p lvrm-bench --bin lvrm-exp -- all  # paper-scale
//! ```
//!
//! Tables print to stdout and are saved as JSON under `target/experiments/`.

use lvrm_bench::figures::{all, find, FIGURES};

fn list() -> String {
    FIGURES.iter().map(|(name, _)| *name).collect::<Vec<_>>().join("\n")
}

fn usage() -> ! {
    eprintln!("usage: lvrm-exp <figure>|all|--list\nfigures:\n{}", list());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag] if flag == "--list" => println!("{}", list()),
        [name] if name == "all" => {
            let t0 = std::time::Instant::now();
            for (name, run) in all() {
                eprintln!("\n########## {name} ##########");
                run();
            }
            eprintln!(
                "\nall experiments done in {:.1} s; results under {}",
                t0.elapsed().as_secs_f64(),
                lvrm_bench::out_dir().display()
            );
        }
        [name] => match find(name) {
            Some(run) => run(),
            None => usage(),
        },
        _ => usage(),
    }
}
