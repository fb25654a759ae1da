//! `wino-benchmark`: run one workload (or all six, each in its own
//! process) and print its metrics; see `README.md`.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use wino_benchmark::report::{self, RunCfg};
use wino_benchmark::workloads::{self, Workload};
use wino_benchmark::{agree, layer_run, serve_run, trace::Tracer, Res};
use wino_probe::{parse_json, Json};

/// Cold set-ups per run whose median is `setup_s`: this process plus
/// `SETUP_SAMPLES − 1` children that set up and exit.
const SETUP_SAMPLES: usize = 9;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    setup_only: bool,
    out: PathBuf,
    rustc: String,
    commit: String,
    compare: Option<[String; 3]>,
}

fn parse_args() -> Res<Args> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        quick: false,
        setup_only: false,
        out: "benchmark/out".into(),
        rustc: "unknown".into(),
        commit: "unknown".into(),
        compare: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse()?,
            "--seconds" => a.seconds = value()?.parse()?,
            "--out" => a.out = value()?.into(),
            "--rustc" => a.rustc = value()?,
            "--commit" => a.commit = value()?,
            "--compare" => a.compare = Some([value()?, value()?, value()?]),
            "--quick" => a.quick = true,
            "--setup-only" => a.setup_only = true,
            // `--trace`, `--trace 0`, `--trace 1`.
            "--trace" => {
                a.trace = it
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1")
            }
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if a.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// This binary again, with the given extra arguments.
fn child(a: &Args, extra: &[&str]) -> Res<Command> {
    let mut c = Command::new(std::env::current_exe()?);
    c.args([
        "--seed",
        &a.seed.to_string(),
        "--seconds",
        &a.seconds.to_string(),
    ]);
    c.args(["--rustc", &a.rustc, "--commit", &a.commit])
        .arg("--out")
        .arg(&a.out);
    if a.quick {
        c.arg("--quick");
    }
    c.args(extra);
    Ok(c)
}

/// Set up, print the set-up time, exit: one cold sample for `setup_s`.
fn setup_only(w: &Workload, a: &Args, threads: usize) -> Res<()> {
    let inputs = w.inputs(a.seed)?;
    let setup_s = if w.is_serve() {
        serve_run::setup(w, &inputs)?.setup_s
    } else {
        layer_run::setup(w, &inputs, threads, &mut Tracer::default())?.setup_s
    };
    println!("{setup_s}");
    Ok(())
}

fn run_one(w: &Workload, a: &Args) -> Res<bool> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunCfg {
        seed: a.seed,
        seconds: if a.quick { 1.0 } else { a.seconds },
        warmup_s: if a.quick { 0.2 } else { 1.0 },
        threads: nproc.min(2),
    };
    if a.setup_only {
        setup_only(w, a, cfg.threads)?;
        return Ok(true);
    }
    let info = report::info(w, &cfg, &a.rustc, &a.commit)?;
    let (line, correct) = if a.trace {
        let traced = if w.is_serve() {
            serve_run::run_traced(w, &cfg)?
        } else {
            layer_run::run_traced(w, &cfg)?
        };
        report::emit_traced(w, &traced, info, &a.out)?
    } else {
        // The children run first, while this process holds no pool whose
        // idle worker would spin beside them.
        let mut setup_s = Vec::with_capacity(SETUP_SAMPLES);
        for _ in 1..SETUP_SAMPLES {
            let out = child(a, &["--workload", w.name, "--setup-only"])?
                .stderr(Stdio::inherit())
                .output()?;
            if !out.status.success() {
                return Err("a set-up child failed".into());
            }
            setup_s.push(String::from_utf8(out.stdout)?.trim().parse::<f64>()?);
        }
        let outcome = if w.is_serve() {
            serve_run::run(w, &cfg)?
        } else {
            layer_run::run(w, &cfg)?
        };
        setup_s.push(outcome.setup_s);
        report::emit(w, &outcome, &setup_s, info, &a.out)?
    };
    println!("{}", line.render());
    Ok(correct)
}

/// Every workload in its own process, so that set-up is cold and the
/// peak RSS is that workload's alone; their result files are gathered
/// into `summary.json`.
fn run_all(a: &Args) -> Res<bool> {
    let mut all_correct = true;
    let mut gathered = Vec::new();
    for w in &workloads::ALL {
        let mut files = vec![format!("{}.json", w.name)];
        println!("== {} ==", w.name);
        all_correct &= child(a, &["--workload", w.name, "--trace", "0"])?
            .status()?
            .success();
        if a.trace {
            println!("== {} (traced) ==", w.name);
            all_correct &= child(a, &["--workload", w.name, "--trace", "1"])?
                .status()?
                .success();
            files.push(format!("{}.layers.json", w.name));
        }
        let mut docs = Vec::new();
        for f in files {
            docs.push(parse_json(&std::fs::read_to_string(a.out.join(f))?)?);
        }
        let mut fields = match docs.remove(0) {
            Json::Obj(fields) => fields,
            _ => return Err("a result file is not an object".into()),
        };
        if let Some(layers) = docs.pop() {
            fields.push(("per_layer".into(), layers));
        }
        gathered.push((w.name.to_string(), Json::Obj(fields)));
    }
    let summary = Json::Obj(vec![("workloads".into(), Json::Obj(gathered))]);
    std::fs::write(a.out.join("summary.json"), summary.render_pretty())?;
    Ok(all_correct)
}

fn main_inner() -> Res<bool> {
    let a = parse_args()?;
    if let Some([first, second, spec]) = &a.compare {
        return agree::table(first, second, spec);
    }
    match &a.workload {
        Some(name) => {
            let w = workloads::by_name(name).ok_or_else(|| {
                let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                format!(
                    "unknown workload {name}; the workloads are {}",
                    names.join(", ")
                )
            })?;
            run_one(w, &a)
        }
        None => run_all(&a),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wino-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
