//! The benchmark's own arithmetic, and that `BENCHMARK.json` and the
//! binary name the same things.

use wino_benchmark::agree::worse_share;
use wino_benchmark::loadgen::poisson_schedule;
use wino_benchmark::names::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use wino_benchmark::report::TAIL_PERCENTILE;
use wino_benchmark::stats::{block_spread, median, percentile, quietest_third, second_blocks};
use wino_benchmark::trace::{self_ms_per_op, self_times_ns, Span, Tracer};
use wino_benchmark::workloads;
use wino_probe::{parse_json, Json};

#[test]
fn p95_keeps_ten_samples_beyond_from_200_samples_on() {
    // The rule "the highest percentile with at least ten samples beyond
    // it", applied to the fixed tail percentile.
    let beyond = |n: usize| n - (n * TAIL_PERCENTILE as usize).div_ceil(100);
    assert_eq!(TAIL_PERCENTILE, 95);
    assert_eq!(beyond(200), 10);
    assert_eq!(beyond(199), 9);
    assert!((200..5000).all(|n| beyond(n) >= 10));
    // Nearest rank: the p95 of 200 samples is the 190th.
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&v, TAIL_PERCENTILE), 190.0);
}

#[test]
fn quiet_seconds_are_the_fastest_third_of_whole_seconds() {
    // Six whole seconds, two ops each, and a part-second that no block takes.
    let at = [
        0.1, 0.6, 1.1, 1.6, 2.1, 2.6, 3.1, 3.6, 4.1, 4.6, 5.1, 5.6, 6.2,
    ];
    let lat = [
        9.0, 9.5, 5.0, 5.5, 7.0, 7.5, 4.0, 4.5, 8.0, 8.5, 6.0, 6.5, 1.0,
    ];
    let blocks = second_blocks(&at, &lat, 6.5);
    assert_eq!(blocks.len(), 6);
    assert_eq!(blocks[1], [5.0, 5.5]);
    assert!(
        blocks.iter().all(|b| b.len() == 2),
        "the op at 6.2 s is in no block"
    );
    let quiet = quietest_third(&blocks);
    assert_eq!(quiet, [&vec![4.0, 4.5], &vec![5.0, 5.5]]);
    // A third rounds up, empty seconds do not count, one block is its own third.
    let sparse = second_blocks(&[0.5, 3.5], &[2.0, 1.0], 4.0);
    assert_eq!(quietest_third(&sparse), [&vec![1.0]]);
    assert_eq!(
        quietest_third(&second_blocks(&[0.5], &[2.0], 7.0)),
        [&vec![2.0]]
    );
    assert!(quietest_third(&second_blocks(&[], &[], 3.0)).is_empty());
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50), 50.0);
    assert_eq!(percentile(&v, 99), 99.0);
    assert_eq!(percentile(&v, 100), 100.0);
    assert_eq!(percentile(&[7.0], 99), 7.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn block_spread_is_range_over_median() {
    assert_eq!(block_spread(&[10.0, 12.0, 11.0]), 2.0 / 11.0);
    assert_eq!(block_spread(&[10.0]), 0.0);
    assert_eq!(block_spread(&[]), 0.0);
}

#[test]
fn poisson_schedule_repeats_per_seed_and_keeps_its_rate() {
    let a = poisson_schedule(7, 800.0, 15.0);
    assert_eq!(a, poisson_schedule(7, 800.0, 15.0));
    assert_ne!(a, poisson_schedule(8, 800.0, 15.0));
    assert!(a.windows(2).all(|w| w[0] < w[1]), "due times ascend");
    assert!(a.iter().all(|&t| (0.0..15.0).contains(&t)));
    // 12000 expected arrivals, standard deviation 110: five of them is
    // a margin no seed should reach.
    for seed in 0..20 {
        let n = poisson_schedule(seed, 800.0, 15.0).len() as f64;
        assert!((n - 12_000.0).abs() < 550.0, "seed {seed}: {n} arrivals");
    }
    // Exponential gaps: their mean is 1/rate and so is their deviation.
    let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    assert!((mean * 800.0 - 1.0).abs() < 0.05, "mean gap {mean}");
    assert!(
        (var.sqrt() * 800.0 - 1.0).abs() < 0.1,
        "gap deviation {}",
        var.sqrt()
    );
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>, op_id: u64) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        op_id,
    }
}

#[test]
fn self_time_subtracts_what_children_cover() {
    let spans = [
        span("op", 0, 100, None, 1),
        span("a", 10, 30, Some(0), 1),
        // Overlaps `a` by 5 and runs past its parent by 10.
        span("b", 25, 110, Some(0), 1),
        span("leaf", 40, 60, Some(2), 1),
        // A second op with two spans of one name.
        span("op", 200, 300, None, 2),
        span("a", 200, 210, Some(4), 2),
        span("a", 250, 280, Some(4), 2),
    ];
    let selfs = self_times_ns(&spans);
    // The children cover 10..100 of the parent, once.
    assert_eq!(selfs[0], 10);
    assert_eq!(selfs[1], 20);
    assert_eq!(selfs[2], 85 - 20);
    assert_eq!(selfs[3], 20);
    assert_eq!(selfs[4], 100 - 40);
    // Self times of a tree sum to the time its root and overhangs span.
    assert_eq!(selfs[..4].iter().sum::<u64>(), 100 + 10 + 5);
    assert_eq!(self_ms_per_op(&spans, &selfs, "a"), vec![20e-6, 40e-6]);
    assert_eq!(self_ms_per_op(&spans, &selfs, "none"), Vec::<f64>::new());
}

#[test]
fn tracer_nests_spans_under_the_open_one() {
    let mut tr = Tracer::default();
    let op = tr.enter("op", 3);
    let a = tr.enter("a", 3);
    tr.exit(a);
    let b = tr.enter("b", 3);
    tr.exit(b);
    tr.exit(op);
    let top = tr.enter("next", 4);
    tr.exit(top);
    let parents: Vec<Option<usize>> = tr.spans.iter().map(|s| s.parent).collect();
    assert_eq!(parents, [None, Some(0), Some(0), None]);
    assert!(tr.spans.iter().all(|s| s.start_ns <= s.end_ns));
    assert!(tr.spans[1].end_ns <= tr.spans[2].start_ns);
    assert_eq!(tr.durations_ms("op").len(), 1);
}

#[test]
fn names_and_units_fit_the_contract() {
    for name in [
        "latency_p50_ms",
        "conv.gemm.self_ms",
        "a",
        "9lives",
        "x-y_z.0",
    ] {
        assert!(valid_name(name), "{name}");
    }
    let long = "x".repeat(65);
    for name in [
        "",
        ".hidden",
        "_x",
        "-x",
        "has space",
        "slash/no",
        "pct%",
        "é",
        long.as_str(),
    ] {
        assert!(!valid_name(name), "{name:?}");
    }
    assert!(valid_name(&"x".repeat(64)));
    for unit in ["ms", "ops/s", "GFLOP/s", "%", "1/s", "MiB"] {
        assert!(valid_unit(unit), "{unit}");
    }
    for unit in ["", "a b", "seventeen-letters"] {
        assert!(!valid_unit(unit), "{unit:?}");
    }
    let mut seen = std::collections::BTreeSet::new();
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)));
    for (name, unit, better) in
        metrics.chain(workloads::ALL.iter().map(|w| (w.name, "count", "lower")))
    {
        assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        assert!(better == "lower" || better == "higher", "{name}: {better}");
        assert!(seen.insert(name), "{name} is used twice");
    }
}

#[test]
fn worse_share_follows_the_direction() {
    assert_eq!(worse_share(10.0, 11.0, "lower"), 0.1);
    assert_eq!(worse_share(10.0, 11.0, "higher"), -0.1);
    assert_eq!(worse_share(10.0, 9.0, "higher"), 0.1);
}

fn strings<'a>(doc: &'a Json, list: &str, key: &str) -> Vec<&'a str> {
    let items = doc
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("no list {list}"));
    items
        .iter()
        .map(|i| {
            i.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("{list}: no {key}"))
        })
        .collect()
}

/// `BENCHMARK.json` lists exactly what the binary prints: same names,
/// same order, same units and directions, and the workloads with their
/// reasons.
#[test]
fn benchmark_json_names_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .unwrap();
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let printed: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(strings(&doc, "end_to_end", "name"), printed);
    assert_eq!(
        strings(&doc, "end_to_end", "unit"),
        END_TO_END.iter().map(|m| m.unit).collect::<Vec<_>>()
    );
    assert_eq!(
        strings(&doc, "end_to_end", "better"),
        END_TO_END.iter().map(|m| m.better).collect::<Vec<_>>()
    );
    let printed: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(strings(&doc, "per_layer", "name"), printed);
    assert_eq!(
        strings(&doc, "per_layer", "unit"),
        PER_LAYER.iter().map(|m| m.unit).collect::<Vec<_>>()
    );
    assert_eq!(
        strings(&doc, "per_layer", "better"),
        PER_LAYER.iter().map(|m| m.better).collect::<Vec<_>>()
    );
    assert_eq!(
        strings(&doc, "workloads", "name"),
        workloads::ALL.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    assert_eq!(
        strings(&doc, "workloads", "why"),
        workloads::ALL.iter().map(|w| w.why).collect::<Vec<_>>()
    );

    for m in doc.get("end_to_end").and_then(Json::as_arr).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    assert!(strings(&doc, "end_to_end", "name").contains(&"setup_s"));
    assert!(workloads::ALL
        .iter()
        .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
