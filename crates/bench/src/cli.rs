//! The command-line grammar of both binaries (`daos-bench`, `daosctl`):
//! a command word, then `--name` flags, each declared as a switch or as
//! taking exactly one value. Anything else is a usage error, which each
//! binary reports and exits 2 on.

/// The flags one command was given.
pub struct Args {
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse `raw` (the words after the command) against the command's
    /// `switches` and value-taking `values`. Refused: a flag neither list
    /// names, a switch followed by a value, a value flag with none, a flag
    /// given twice, and any word that is not a flag or a flag's value.
    pub fn parse(raw: &[String], switches: &[&str], values: &[&str]) -> Result<Args, String> {
        let mut given: Vec<(String, Option<String>)> = Vec::new();
        let mut words = raw.iter().peekable();
        while let Some(word) = words.next() {
            let Some(name) = word.strip_prefix("--") else {
                return Err(format!("unexpected argument: {word}"));
            };
            let value = words.next_if(|v| !v.starts_with("--")).cloned();
            match (switches.contains(&name), values.contains(&name), &value) {
                (false, false, _) => return Err(format!("unknown flag {word}")),
                (true, _, Some(v)) => return Err(format!("{word} takes no value (got {v})")),
                (_, true, None) => return Err(format!("{word} needs a value")),
                _ if given.iter().any(|(n, _)| n == name) => {
                    return Err(format!("{word} given twice"))
                }
                _ => given.push((name.to_string(), value)),
            }
        }
        Ok(Args { given })
    }

    /// The value of flag `name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        let flag = self.given.iter().find(|(n, _)| n == name);
        flag.and_then(|(_, v)| v.as_deref())
    }

    /// Whether flag `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// Flag `name`'s value parsed as a `T`, or `default` if not given.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name}: {v}")),
        }
    }
}
