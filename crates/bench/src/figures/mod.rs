//! The figure programs: one module per figure of the paper's Chapter 4
//! (plus the extension studies EXPERIMENTS.md records), each a `run()` that
//! prints its table and saves the JSON copy. `lvrm-exp` looks them up here.

/// Declares a module per figure and the name → `run` table over them.
macro_rules! figures {
    ($($name:ident)*) => {
        $(pub mod $name;)*

        /// Every figure program by name, in the order `--list` prints them.
        pub const FIGURES: &[(&str, fn())] = &[$((stringify!($name), $name::run)),*];
    };
}

figures! {
    exp1a exp1a_cpu exp1b exp1c exp1d exp1e
    exp2a exp2b exp2c exp2d exp2e
    exp3a exp3b exp3c
    exp4 exp_ablation_alloc
    exp_metrics exp_overload exp_warm_restart
}

/// What `all` runs, in order: Chapter 4 end to end plus the allocation
/// ablation. The three extension studies after them run by name only.
pub fn all() -> &'static [(&'static str, fn())] {
    &FIGURES[..16]
}

/// The figure program called `name`.
pub fn find(name: &str) -> Option<fn()> {
    FIGURES.iter().find(|(n, _)| *n == name).map(|&(_, run)| run)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `exp…` word in `text` that is written as code (`` `exp1a` ``,
    /// `` `LVRM_EXP_FULL=1 exp1c` ``, `lvrm-exp exp4`): the names the docs
    /// tell a reader to run.
    fn cited(text: &str) -> Vec<&str> {
        text.split('`')
            .skip(1)
            .step_by(2)
            .flat_map(|code| code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')))
            .filter(|w| {
                w.starts_with("exp") && w[3..].starts_with(|c: char| c.is_ascii_digit() || c == '_')
            })
            .collect()
    }

    #[test]
    fn every_name_the_docs_cite_resolves() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for doc in ["EXPERIMENTS.md", "DESIGN.md", "README.md"] {
            let text = std::fs::read_to_string(format!("{root}/{doc}")).expect(doc);
            let names = cited(&text);
            assert!(!names.is_empty(), "{doc} cites no figure program");
            for name in names {
                assert!(find(name).is_some(), "{doc} cites `{name}`, which lvrm-exp does not know");
            }
        }
    }

    #[test]
    fn all_is_the_retired_launchers_sixteen_of_nineteen() {
        assert_eq!(FIGURES.len(), 19);
        // The list `all_experiments` launched, as it stood when it was retired.
        let launcher = [
            "exp1a",
            "exp1a_cpu",
            "exp1b",
            "exp1c",
            "exp1d",
            "exp1e",
            "exp2a",
            "exp2b",
            "exp2c",
            "exp2d",
            "exp2e",
            "exp3a",
            "exp3b",
            "exp3c",
            "exp4",
            "exp_ablation_alloc",
        ];
        let all: Vec<&str> = all().iter().map(|(n, _)| *n).collect();
        assert_eq!(all, launcher);
    }
}
