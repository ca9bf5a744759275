//! The one argv parser behind every binary in the workspace. A command
//! declares a [`Spec`]: its positionals, switches, valued flags (each
//! with a metavar or a choice list) and which of them repeat.
//! [`Spec::parse`] walks argv once and rejects, naming the flag or
//! argument: an unknown flag; a valued flag with no value, or followed
//! by a token that starts with `--`; a repeated flag not declared
//! repeatable; a value outside its choices; a positional the command does
//! not take, or a required one missing. [`Spec::usage`] renders the same
//! declaration, so a usage line lists exactly what parses.

use std::str::FromStr;

/// The width [`Spec::usage`] wraps at, counting a `usage: ` prefix.
const WIDTH: usize = 80;
/// The indent of a usage line's continuation lines: past `usage: `.
const INDENT: usize = "usage: ".len() + 4;

/// How often a flag or positional may be given: `Once` (a required
/// positional), `Optional` (a flag, or an optional positional) or `Many`
/// (a repeatable flag, or a positional given one or more times).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Count {
    Once,
    Optional,
    Many,
}

/// One flag (`--jobs`) or positional (`<dies>`) a command takes.
#[derive(Debug, Clone)]
struct Item {
    name: &'static str,
    /// What a flag's value is called in usage; `None` for a switch.
    metavar: Option<&'static str>,
    /// The accepted values; empty means any.
    choices: Vec<&'static str>,
    count: Count,
}

impl Item {
    fn is_flag(&self) -> bool {
        self.name.starts_with("--")
    }

    /// The item in a usage line: `[--jobs N]`, `[--node 40|32|20]`,
    /// `<ooo|io>`, `[<workload>]`, `<id>...`. A positional whose choices
    /// would not fit on one line shows its name.
    fn usage(&self) -> String {
        let choices = self.choices.join("|");
        let fits = INDENT + choices.len() + "<>...".len() <= WIDTH;
        let shown = match (self.is_flag(), self.metavar) {
            (true, None) => self.name.to_owned(),
            (true, Some(metavar)) if choices.is_empty() => format!("{} {metavar}", self.name),
            (true, Some(_)) => format!("{} {choices}", self.name),
            (false, _) if choices.is_empty() || !fits => self.name.to_owned(),
            (false, _) => format!("<{choices}>"),
        };
        match (self.count, self.is_flag()) {
            (Count::Once, _) => shown,
            (Count::Optional, _) => format!("[{shown}]"),
            (Count::Many, true) => format!("[{shown}]..."),
            (Count::Many, false) => shown + "...",
        }
    }
}

/// The argument grammar of one command, or of one mode of a command.
#[derive(Debug, Clone)]
pub struct Spec {
    command: &'static str,
    mode: Option<&'static str>,
    items: Vec<Item>,
}

impl Spec {
    /// A command that takes nothing yet; `command` prefixes its messages.
    pub fn new(command: &'static str) -> Spec {
        Spec {
            command,
            mode: None,
            items: Vec::new(),
        }
    }

    /// The command name this spec was declared with.
    pub fn command(&self) -> &'static str {
        self.command
    }

    /// The switch that selects this spec among a command's modes, if any.
    pub fn mode(&self) -> Option<&'static str> {
        self.mode
    }

    /// Makes this spec the mode of its command selected by the switch
    /// `flag`, which usage shows unbracketed after the command name.
    pub fn with_mode(mut self, flag: &'static str) -> Spec {
        self.mode = Some(flag);
        self.switches([flag])
    }

    /// Flags that stand alone.
    pub fn switches<const N: usize>(self, names: [&'static str; N]) -> Spec {
        names
            .into_iter()
            .fold(self, |s, name| s.item(name, None, Count::Optional))
    }

    /// Flags that take one value each: `(name, metavar)` pairs.
    pub fn values<const N: usize>(self, flags: [(&'static str, &'static str); N]) -> Spec {
        let item = |s: Spec, (name, metavar)| s.item(name, Some(metavar), Count::Optional);
        flags.into_iter().fold(self, item)
    }

    /// A flag that takes one of `choices`, which usage shows.
    pub fn choice(
        self,
        name: &'static str,
        choices: impl IntoIterator<Item = &'static str>,
    ) -> Spec {
        self.values([(name, "")]).one_of(choices)
    }

    /// A required positional argument.
    pub fn arg(self, name: &'static str) -> Spec {
        self.item(name, None, Count::Once)
    }

    /// An optional positional argument.
    pub fn optional(self, name: &'static str) -> Spec {
        self.item(name, None, Count::Optional)
    }

    /// Restricts the last declared flag or positional to `choices`; a
    /// positional's usage shows them when they fit on a line.
    pub fn one_of(mut self, choices: impl IntoIterator<Item = &'static str>) -> Spec {
        let last = self.items.last_mut().expect("one_of follows an item");
        last.choices = choices.into_iter().collect();
        self
    }

    /// Lets the last declared flag repeat, or the last positional (which
    /// must be required and come last) take every remaining argument.
    pub fn repeats(mut self) -> Spec {
        self.items
            .last_mut()
            .expect("repeats follows an item")
            .count = Count::Many;
        self
    }

    fn item(mut self, name: &'static str, metavar: Option<&'static str>, count: Count) -> Spec {
        debug_assert!(self.declared(name).is_none(), "{name} declared twice");
        self.items.push(Item {
            name,
            metavar,
            choices: Vec::new(),
            count,
        });
        self
    }

    /// The declared flag or positional spelled `name`, if any.
    fn declared(&self, name: &str) -> Option<&'static str> {
        self.items.iter().map(|i| i.name).find(|n| *n == name)
    }

    /// Walks `argv` (without the command name) once, or returns a
    /// message naming the first flag or argument the command does not
    /// take.
    pub fn try_parse(&self, argv: &[String]) -> Result<Args<'_>, String> {
        let positionals: Vec<&Item> = self.items.iter().filter(|i| !i.is_flag()).collect();
        let mut slot = 0;
        let mut found: Vec<(&'static str, String)> = Vec::new();
        let mut rest = argv.iter();
        while let Some(token) = rest.next() {
            let (item, value) = if token.starts_with("--") {
                let flag = (self.items.iter())
                    .find(|i| i.name == token)
                    .ok_or_else(|| format!("unknown flag {token}"))?;
                if flag.count != Count::Many && found.iter().any(|(n, _)| *n == flag.name) {
                    return Err(format!("{token} given more than once"));
                }
                // Only a valued flag takes the next token.
                let value = match flag.metavar.map(|_| rest.next()) {
                    None => "",
                    Some(None) => return Err(format!("{token} needs a value")),
                    Some(Some(v)) if v.starts_with("--") => {
                        return Err(format!("{token} needs a value, got flag {v}"))
                    }
                    Some(Some(v)) => v,
                };
                (flag, value)
            } else {
                let p = *(positionals.get(slot))
                    .ok_or_else(|| format!("unexpected argument {token}"))?;
                slot += usize::from(p.count != Count::Many);
                (p, token.as_str())
            };
            if !item.choices.is_empty() && !item.choices.contains(&value) {
                let choices = item.choices.join(" ");
                return Err(format!(
                    "invalid value for {}: {value}; one of: {choices}",
                    item.name
                ));
            }
            found.push((item.name, value.to_owned()));
        }
        let given = |p: &Item| found.iter().any(|(n, _)| *n == p.name);
        match positionals
            .iter()
            .find(|p| p.count != Count::Optional && !given(p))
        {
            Some(p) => Err(format!("{} needs a value", p.name)),
            None => Ok(Args { spec: self, found }),
        }
    }

    /// [`Spec::try_parse`], exiting 2 through [`Spec::fail`] on an error.
    pub fn parse(&self, argv: &[String]) -> Args<'_> {
        self.try_parse(argv).unwrap_or_else(|e| self.fail(&e))
    }

    /// Prints `message` under the command's name, then its usage line,
    /// and exits 2.
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("{}: {message}", self.command);
        eprintln!("usage: {}", self.usage());
        std::process::exit(2)
    }

    /// The usage line: command, mode, then every item in declaration
    /// order, wrapped to fit after a `usage: ` prefix, with continuation
    /// lines indented past it.
    pub fn usage(&self) -> String {
        let items = self.items.iter().filter(|i| Some(i.name) != self.mode);
        let words = self
            .mode
            .map(str::to_owned)
            .into_iter()
            .chain(items.map(Item::usage));
        let mut lines = vec![format!("usage: {}", self.command)];
        for word in words {
            let line = lines.last_mut().expect("a first line");
            if line.len() + 1 + word.len() > WIDTH {
                lines.push(" ".repeat(INDENT) + &word);
            } else {
                *line += &format!(" {word}");
            }
        }
        lines.join("\n")["usage: ".len()..].to_owned()
    }
}

/// What [`Spec::try_parse`] found: each flag and positional given, under
/// the name it was declared with (`--jobs`, `<dies>`).
#[derive(Debug)]
pub struct Args<'s> {
    spec: &'s Spec,
    found: Vec<(&'static str, String)>,
}

impl Args<'_> {
    /// Whether the flag or positional `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.values(name).next().is_some()
    }

    /// The value of `name`, if given (the first, for a repeated one).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values(name).next()
    }

    /// The value of the required positional `name`, which a parse that
    /// succeeded always holds.
    pub fn arg(&self, name: &str) -> &str {
        (self.value(name)).unwrap_or_else(|| panic!("{name} is not a required positional"))
    }

    /// Every value given for `name`, in argv order.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not declare `name`: reading a name the
    /// grammar never allows is a bug, not an absent flag.
    pub fn values(&self, name: &str) -> impl Iterator<Item = &str> + '_ {
        let command = self.spec.command;
        let name = (self.spec.declared(name))
            .unwrap_or_else(|| panic!("{command} reads {name}, which its spec does not declare"));
        let found = self.found.iter().filter(move |(n, _)| *n == name);
        found.map(|(_, v)| v.as_str())
    }

    /// The value of `name` parsed as `T`, if given. A value that does not
    /// parse exits 2 through [`Spec::fail`] with `invalid value for NAME:
    /// V`, so a typo never runs at the default.
    pub fn read<T: FromStr>(&self, name: &str) -> Option<T> {
        let fail = |v| self.fail(&format!("invalid value for {name}: {v}"));
        self.value(name)
            .map(|v| v.parse().unwrap_or_else(|_| fail(v)))
    }

    /// [`Spec::fail`] for the spec these arguments were parsed against.
    pub fn fail(&self, message: &str) -> ! {
        self.spec.fail(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    fn spec() -> Spec {
        Spec::new("demo")
            .arg("<core>")
            .one_of(["ooo", "io"])
            .optional("<dies>")
            .switches(["--quick"])
            .values([("--json", "FILE")])
            .choice("--node", ["40", "20"])
            .values([("--tol-path", "PREFIX=PCT")])
            .repeats()
    }

    fn error(list: &[&str]) -> String {
        spec().try_parse(&argv(list)).expect_err("rejected")
    }

    #[test]
    fn one_walk_finds_switches_values_and_positionals() {
        let s = spec();
        let args = argv(&[
            "io",
            "--quick",
            "--json",
            "x.json",
            "3",
            "--tol-path",
            "a=1",
            "--node",
            "20",
            "--tol-path",
            "b=2",
        ]);
        let a = s.try_parse(&args).expect("parses");
        assert_eq!(a.arg("<core>"), "io");
        assert_eq!(a.read::<u32>("<dies>"), Some(3));
        assert!(a.has("--quick"));
        assert_eq!(a.value("--json"), Some("x.json"));
        assert_eq!(a.value("--node"), Some("20"));
        assert_eq!(a.values("--tol-path").collect::<Vec<_>>(), ["a=1", "b=2"]);
        let bare = argv(&["ooo"]);
        let a = s.try_parse(&bare).expect("parses");
        assert!(!a.has("--quick") && !a.has("<dies>"));
        assert_eq!(a.value("--json"), None);
    }

    #[test]
    fn every_rejection_names_the_flag_or_argument() {
        assert_eq!(error(&["ooo", "--bogus"]), "unknown flag --bogus");
        assert_eq!(error(&["ooo", "--json"]), "--json needs a value");
        // A valued flag never swallows the next flag as its value.
        assert_eq!(
            error(&["ooo", "--json", "--quick"]),
            "--json needs a value, got flag --quick"
        );
        assert_eq!(
            error(&["ooo", "--quick", "--quick"]),
            "--quick given more than once"
        );
        assert_eq!(
            error(&["ooo", "--json", "a", "--json", "b"]),
            "--json given more than once"
        );
        assert_eq!(
            error(&["ooo", "--node", "28"]),
            "invalid value for --node: 28; one of: 40 20"
        );
        assert_eq!(
            error(&["conv"]),
            "invalid value for <core>: conv; one of: ooo io"
        );
        assert_eq!(error(&["ooo", "2", "extra"]), "unexpected argument extra");
        assert_eq!(error(&["--quick"]), "<core> needs a value");
    }

    #[test]
    #[should_panic(expected = "does not declare")]
    fn reading_an_undeclared_name_is_a_bug() {
        let s = spec();
        let args = argv(&["ooo"]);
        s.try_parse(&args).expect("parses").has("--quik");
    }

    #[test]
    fn a_repeated_positional_takes_every_remaining_argument() {
        let s = Spec::new("repro")
            .arg("<id>")
            .one_of(["fig2.1", "tab3.2", "all"])
            .repeats()
            .switches(["--quick"]);
        let args = argv(&["fig2.1", "--quick", "tab3.2"]);
        let a = s.try_parse(&args).expect("parses");
        assert_eq!(a.values("<id>").collect::<Vec<_>>(), ["fig2.1", "tab3.2"]);
        assert_eq!(
            s.try_parse(&argv(&["all", "fig9"]))
                .expect_err("unknown id"),
            "invalid value for <id>: fig9; one of: fig2.1 tab3.2 all"
        );
        assert_eq!(
            s.try_parse(&argv(&["--quick"])).expect_err("no id"),
            "<id> needs a value"
        );
    }

    #[test]
    fn usage_lists_exactly_the_declaration_and_wraps() {
        assert_eq!(
            spec().usage(),
            "demo <ooo|io> [<dies>] [--quick] [--json FILE] [--node 40|20]\n           \
             [--tol-path PREFIX=PCT]..."
        );
        let moded = Spec::new("sop prof")
            .with_mode("--analyze")
            .arg("<a.json>")
            .optional("<b.json>");
        assert_eq!(moded.usage(), "sop prof --analyze <a.json> [<b.json>]");
        for line in spec().usage().lines() {
            assert!("usage: ".len() + line.len() <= WIDTH, "{line}");
        }
    }
}
