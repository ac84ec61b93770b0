//! Minimal `--flag value` argument parsing (no external dependency).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` options.
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// Remaining positionals.
    pub positionals: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args` (skipping the binary name).
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let command = argv.next().ok_or("missing subcommand")?;
        let mut flags = HashMap::new();
        let mut positionals = Vec::new();
        let rest: Vec<String> = argv.collect();
        let mut i = 0;
        while i < rest.len() {
            let a = &rest[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 >= rest.len() || rest[i + 1].starts_with("--") {
                    // Boolean flag.
                    flags.insert(key.to_string(), "true".to_string());
                    i += 1;
                } else {
                    flags.insert(key.to_string(), rest[i + 1].clone());
                    i += 2;
                }
            } else {
                positionals.push(a.clone());
                i += 1;
            }
        }
        Ok(Args {
            command,
            positionals,
            flags,
        })
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// String option with default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Parsed numeric option with default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid --{key} value: {v}")),
        }
    }

    /// Boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Errors on the first option not in `known`, so a flag a command does
    /// not take is refused rather than silently ignored.
    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(format!("{} does not take --{k}", self.command)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(|x| x.to_string())).unwrap()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = parse("train table4 --epochs 7 --quick --out m.json");
        assert_eq!(a.command, "train");
        assert_eq!(a.positionals, vec!["table4"]);
        assert_eq!(a.num("epochs", 0usize).unwrap(), 7);
        assert!(a.flag("quick"));
        assert_eq!(a.get("out"), Some("m.json"));
        assert_eq!(a.get_or("missing", "d"), "d");
    }

    #[test]
    fn rejects_empty() {
        assert!(Args::parse(std::iter::empty()).is_err());
    }

    #[test]
    fn only_refuses_options_outside_the_list() {
        let a = parse("experiment fig6 --quick --logs 5");
        assert!(a.only(&["quick", "logs"]).is_ok());
        assert_eq!(
            a.only(&["quick"]).unwrap_err(),
            "experiment does not take --logs"
        );
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse("x --epochs nope");
        assert!(a.num("epochs", 1usize).is_err());
    }
}
