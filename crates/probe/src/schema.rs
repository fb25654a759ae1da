//! The versioned `BENCH_*.json` schema and its validator.
//!
//! The on-disk perf-report format is documented field-by-field in
//! `docs/bench-schema.md`; this module is the executable half of that
//! document. The versioning rule: **additive changes** (new optional
//! fields) keep [`SCHEMA_VERSION`]; any rename, removal, unit change or
//! semantic change bumps it. Validators accept exactly one version.

use crate::event::SpanCategory;
use crate::json::Json;

/// Current schema version of emitted perf reports.
///
/// v2: layer entries gained accuracy fields — `max_rel_error` (measured
/// vs. the f64 direct oracle) and `predicted_bound` (the a-priori
/// conditioning bound) — and documents may carry a top-level `counters`
/// object (sentinel tallies). The fields are additive, but their
/// *presence contract* (the smoke bench must emit `max_rel_error`)
/// changed what consumers may rely on, hence the bump.
///
/// v3: serve reports and perf reports share one document shape. Layer
/// entries may carry an `execution` object (the serialized
/// `ExecutionReport`: which backend produced the output and why it fell
/// back, names from [`BACKEND_NAMES`] / [`FALLBACK_CODES`]), and a
/// document may instead carry a top-level `serve` object (overload-test
/// results: latency percentiles, goodput, shed and breaker tallies) —
/// the `layers` array, previously mandatory and non-empty, is required
/// exactly when `serve` is absent. That relaxation changes what
/// consumers may assume about `layers`, hence the bump.
///
/// v4: scaling reports. A document may carry a top-level `scaling`
/// object (strong/weak-scaling sweep results: per-point speedup and
/// parallel efficiency, optional barrier-skew columns, the detected
/// topology, and Amdahl-fitted serial fractions) — and `layers` is now
/// required exactly when *neither* `serve` nor `scaling` is present.
/// That relaxation again changes what consumers may assume about
/// `layers`, hence the bump.
///
/// v5: memory accounting. A document may carry a top-level `memory`
/// object (the analytic footprint model's prediction next to observed
/// allocator tallies, plus degradation-ladder counts), the `serve`
/// section gains an optional `shed_memory` column (requests refused by
/// the byte-budget admission gate), and [`FALLBACK_CODES`] gains
/// `memory` (a layer degraded because an allocation was refused). The
/// new fallback code widens an enumerated set consumers may have
/// treated as closed, hence the bump.
pub const SCHEMA_VERSION: u64 = 5;

/// Barrier-skew budget (µs) the `--scaling-smoke` gate holds smoke-layer
/// sweeps to: the worst single fork–join skew a smoke-sized layer may
/// exhibit before the run fails. Sized from the probe layer's own
/// measurements — smoke layers complete a fork–join in hundreds of µs,
/// so 25 ms of skew means a participant was descheduled for an entire
/// timeslice (oversubscription), not load imbalance; CI hosts routinely
/// show a handful of ms. Scaling reports echo the budget they were
/// gated against in `scaling.skew_budget_us`.
pub const SMOKE_SKEW_BUDGET_US: f64 = 25_000.0;

/// The stable mode names of scaling sweep points
/// (`scaling.points[i].mode`): `strong` = fixed problem, growing thread
/// count; `weak` = problem grows proportionally with threads.
pub const SCALING_MODES: [&str; 2] = ["strong", "weak"];

/// The stable names of `wino_conv::LayerBackend` variants as serialized
/// into `layers[i].execution.backend` and serve `backends` tallies. The
/// producer crates assert their `name()` methods stay inside this set.
pub const BACKEND_NAMES: [&str; 5] = [
    "winograd-jit",
    "winograd-mono",
    "winograd-demoted",
    "winograd-grouped",
    "im2col",
];

/// The stable reason codes of `wino_conv::FallbackReason` as serialized
/// into `layers[i].execution.fallback` and serve `fallbacks` tallies.
pub const FALLBACK_CODES: [&str; 7] = [
    "jit-unavailable",
    "plan-failed",
    "numeric-guard",
    "sentinel-trip",
    "dilated",
    "group-narrow",
    "memory",
];

/// Validate a parsed `BENCH_*.json` document. Returns every problem
/// found (empty = valid).
pub fn validate(doc: &Json) -> Result<(), Vec<String>> {
    let mut errs = Vec::new();
    let mut err = |m: String| errs.push(m);

    match doc.get("schema_version").and_then(Json::as_f64) {
        Some(v) if v == SCHEMA_VERSION as f64 => {}
        Some(v) => err(format!("schema_version {v} != supported {SCHEMA_VERSION}")),
        None => err("missing numeric schema_version".into()),
    }
    for key in ["generated_by", "date"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            err(format!("missing string field '{key}'"));
        }
    }
    match doc.get("machine") {
        Some(m) => {
            for key in ["peak_gflops", "mem_bw_gbps", "threads"] {
                if m.get(key).and_then(Json::as_f64).is_none() {
                    err(format!("machine.{key} missing or not a number"));
                }
            }
            if m.get("simd").and_then(Json::as_str).is_none() {
                err("machine.simd missing or not a string".into());
            }
        }
        None => err("missing 'machine' object".into()),
    }

    // v4: `layers` is mandatory (and non-empty) exactly when the document
    // has neither a `serve` nor a `scaling` section; those reports have no
    // per-layer stage breakdowns but may still include layer rows.
    let has_alternate = doc.get("serve").is_some() || doc.get("scaling").is_some();
    match doc.get("layers").and_then(Json::as_arr) {
        None if !has_alternate => err("missing 'layers' array".into()),
        Some([]) if !has_alternate => err("'layers' is empty".into()),
        Some(layers) => {
            for (i, layer) in layers.iter().enumerate() {
                validate_layer(i, layer, &mut errs);
            }
        }
        _ => {}
    }

    if let Some(serve) = doc.get("serve") {
        validate_serve(serve, &mut errs);
    }

    if let Some(scaling) = doc.get("scaling") {
        validate_scaling(scaling, &mut errs);
    }

    // v5: an optional top-level `memory` object (analytic footprint
    // prediction next to observed allocator tallies).
    if let Some(memory) = doc.get("memory") {
        validate_memory(memory, &mut errs);
    }

    // v2: an optional top-level `counters` object (sentinel tallies).
    // When present, every counter name must be known and numeric.
    if let Some(counters) = doc.get("counters") {
        match counters {
            Json::Obj(fields) => {
                for (name, v) in fields {
                    if !crate::Counter::ALL.iter().any(|c| c.name() == name) {
                        errs.push(format!("counters.{name} is not a known counter"));
                    } else if v.as_f64().is_none() {
                        errs.push(format!("counters.{name} is not a number"));
                    }
                }
            }
            _ => errs.push("'counters' is not an object".into()),
        }
    }

    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn validate_layer(i: usize, layer: &Json, errs: &mut Vec<String>) {
    let ctx = |f: &str| format!("layers[{i}].{f}");
    for key in ["layer", "impl"] {
        if layer.get(key).and_then(Json::as_str).is_none() {
            errs.push(format!("{} missing or not a string", ctx(key)));
        }
    }
    for key in ["best_ms", "mean_ms", "effective_gflops", "reps"] {
        if layer.get(key).and_then(Json::as_f64).is_none() {
            errs.push(format!("{} missing or not a number", ctx(key)));
        }
    }
    // v2 accuracy fields: optional, but must be numeric when present.
    for key in ["max_rel_error", "predicted_bound"] {
        if let Some(v) = layer.get(key) {
            if v.as_f64().is_none() {
                errs.push(format!("{} is not a number", ctx(key)));
            }
        }
    }
    // v3: optional serialized ExecutionReport.
    if let Some(exec) = layer.get("execution") {
        validate_execution(&ctx("execution"), exec, errs);
    }
    match layer.get("barrier") {
        None => errs.push(format!("{} missing", ctx("barrier"))),
        Some(b) => {
            for key in ["fork_joins", "max_skew_us", "mean_skew_us", "total_wait_ms"] {
                if b.get(key).and_then(Json::as_f64).is_none() {
                    errs.push(format!("{}.{key} missing or not a number", ctx("barrier")));
                }
            }
        }
    }
    match layer.get("stages").and_then(Json::as_arr) {
        None => errs.push(format!("{} missing or not an array", ctx("stages"))),
        Some(stages) => {
            let mut with_work = 0usize;
            for (j, s) in stages.iter().enumerate() {
                let sctx = format!("layers[{i}].stages[{j}]");
                match s.get("stage").and_then(Json::as_str) {
                    Some(name) if SpanCategory::from_name(name).is_some() => {}
                    Some(name) => errs.push(format!("{sctx}.stage '{name}' is not a known category")),
                    None => errs.push(format!("{sctx}.stage missing or not a string")),
                }
                for key in ["wall_ms", "cpu_ms", "spans"] {
                    if s.get(key).and_then(Json::as_f64).is_none() {
                        errs.push(format!("{sctx}.{key} missing or not a number"));
                    }
                }
                // Optional work fields must be numeric when present, and
                // gflops/arith_intensity travel together.
                for key in ["gflops", "arith_intensity", "bytes", "roofline_gflops"] {
                    if let Some(v) = s.get(key) {
                        if v.as_f64().is_none() {
                            errs.push(format!("{sctx}.{key} is not a number"));
                        }
                    }
                }
                if s.get("gflops").is_some() && s.get("arith_intensity").is_some() {
                    with_work += 1;
                }
            }
            if stages.is_empty() {
                errs.push(format!("{} is empty (did the run carry a ProbedExecutor?)", ctx("stages")));
            } else if with_work == 0 {
                errs.push(format!(
                    "{} has no stage with gflops + arith_intensity (work model missing)",
                    ctx("stages")
                ));
            }
        }
    }
}

/// A serialized `ExecutionReport`: `{backend, fallback?}` with names
/// pinned to [`BACKEND_NAMES`] / [`FALLBACK_CODES`].
fn validate_execution(ctx: &str, exec: &Json, errs: &mut Vec<String>) {
    match exec.get("backend").and_then(Json::as_str) {
        Some(name) if BACKEND_NAMES.contains(&name) => {}
        Some(name) => errs.push(format!("{ctx}.backend '{name}' is not a known backend")),
        None => errs.push(format!("{ctx}.backend missing or not a string")),
    }
    if let Some(fb) = exec.get("fallback") {
        match fb.as_str() {
            Some(code) if FALLBACK_CODES.contains(&code) => {}
            Some(code) => {
                errs.push(format!("{ctx}.fallback '{code}' is not a known fallback code"));
            }
            None => errs.push(format!("{ctx}.fallback is not a string")),
        }
    }
}

/// The v3 `serve` section: whole-run overload-test results from the
/// open-loop load generator.
fn validate_serve(serve: &Json, errs: &mut Vec<String>) {
    for key in [
        "requests",
        "admitted",
        "completed",
        "failed",
        "shed_overload",
        "shed_deadline",
        "shed_predicted",
        "p50_ms",
        "p99_ms",
        "goodput_rps",
        "shed_rate",
        "breaker_trips",
    ] {
        if serve.get(key).and_then(Json::as_f64).is_none() {
            errs.push(format!("serve.{key} missing or not a number"));
        }
    }
    // Optional numeric columns (run parameters and extra percentiles).
    // v5: `shed_memory` — requests refused by the byte-budget admission
    // gate; optional so pre-memory-ceiling runs stay valid. Additive within
    // v5: the batcher tallies `batches`, `batch_failures`,
    // `breaker_recoveries` and `peak_depth`, which the per-server stats
    // keep (there is no process-global serve counter family).
    for key in [
        "pool_rebuilds",
        "offered_rps",
        "sustainable_rps",
        "duration_s",
        "deadline_ms",
        "max_batch",
        "mean_ms",
        "p95_ms",
        "shed_memory",
        "memory_ceiling_bytes",
        "batches",
        "batch_failures",
        "breaker_recoveries",
        "peak_depth",
    ] {
        if let Some(v) = serve.get(key) {
            if v.as_f64().is_none() {
                errs.push(format!("serve.{key} is not a number"));
            }
        }
    }
    // Optional per-backend / per-fallback tallies over completed
    // requests' execution reports.
    for (key, known) in
        [("backends", &BACKEND_NAMES as &[&str]), ("fallbacks", &FALLBACK_CODES as &[&str])]
    {
        if let Some(tally) = serve.get(key) {
            match tally {
                Json::Obj(fields) => {
                    for (name, v) in fields {
                        if !known.contains(&name.as_str()) {
                            errs.push(format!("serve.{key}.{name} is not a known name"));
                        } else if v.as_f64().is_none() {
                            errs.push(format!("serve.{key}.{name} is not a number"));
                        }
                    }
                }
                _ => errs.push(format!("serve.{key} is not an object")),
            }
        }
    }
}

/// The v5 `memory` section: the analytic footprint model's prediction
/// for the run next to what the allocator actually tallied, plus the
/// memory-degradation-ladder counts. Modeled vs. observed side by side
/// is the point — the footprint unit gate holds them within 10%.
fn validate_memory(memory: &Json, errs: &mut Vec<String>) {
    for key in ["modeled_bytes", "alloc_bytes_peak", "alloc_calls"] {
        if memory.get(key).and_then(Json::as_f64).is_none() {
            errs.push(format!("memory.{key} missing or not a number"));
        }
    }
    // Optional columns: the configured budget (absent = unbudgeted run)
    // and ladder tallies.
    for key in ["budget_bytes", "demotions", "rescues", "injected_failures"] {
        if let Some(v) = memory.get(key) {
            if v.as_f64().is_none() {
                errs.push(format!("memory.{key} is not a number"));
            }
        }
    }
}

/// The v4 `scaling` section: strong/weak-scaling sweep results from the
/// `wino-bench` scaling binary.
fn validate_scaling(scaling: &Json, errs: &mut Vec<String>) {
    for key in ["host_threads", "efficiency_floor"] {
        if scaling.get(key).and_then(Json::as_f64).is_none() {
            errs.push(format!("scaling.{key} missing or not a number"));
        }
    }
    if let Some(v) = scaling.get("skew_budget_us") {
        if v.as_f64().is_none() {
            errs.push("scaling.skew_budget_us is not a number".into());
        }
    }
    // Optional topology provenance: how the sweep saw the machine.
    if let Some(topo) = scaling.get("topology") {
        for key in ["domains", "cpus", "smt"] {
            if topo.get(key).and_then(Json::as_f64).is_none() {
                errs.push(format!("scaling.topology.{key} missing or not a number"));
            }
        }
        for key in ["source", "spec"] {
            if topo.get(key).and_then(Json::as_str).is_none() {
                errs.push(format!("scaling.topology.{key} missing or not a string"));
            }
        }
    }
    match scaling.get("points").and_then(Json::as_arr) {
        None => errs.push("scaling.points missing or not an array".into()),
        Some([]) => errs.push("scaling.points is empty".into()),
        Some(points) => {
            for (i, p) in points.iter().enumerate() {
                let ctx = |f: &str| format!("scaling.points[{i}].{f}");
                if p.get("layer").and_then(Json::as_str).is_none() {
                    errs.push(format!("{} missing or not a string", ctx("layer")));
                }
                match p.get("mode").and_then(Json::as_str) {
                    Some(m) if SCALING_MODES.contains(&m) => {}
                    Some(m) => errs.push(format!("{} '{m}' is not a known mode", ctx("mode"))),
                    None => errs.push(format!("{} missing or not a string", ctx("mode"))),
                }
                for key in ["threads", "best_ms", "speedup", "efficiency"] {
                    if p.get(key).and_then(Json::as_f64).is_none() {
                        errs.push(format!("{} missing or not a number", ctx(key)));
                    }
                }
                for key in ["batch", "mean_ms", "max_skew_us", "mean_skew_us"] {
                    if let Some(v) = p.get(key) {
                        if v.as_f64().is_none() {
                            errs.push(format!("{} is not a number", ctx(key)));
                        }
                    }
                }
                if let Some(v) = p.get("executor") {
                    if v.as_str().is_none() {
                        errs.push(format!("{} is not a string", ctx("executor")));
                    }
                }
            }
        }
    }
    // Optional Amdahl fits, one per strong-scaled layer.
    if let Some(fits) = scaling.get("fits") {
        match fits.as_arr() {
            Some(fits) => {
                for (i, fit) in fits.iter().enumerate() {
                    if fit.get("layer").and_then(Json::as_str).is_none() {
                        errs.push(format!("scaling.fits[{i}].layer missing or not a string"));
                    }
                    match fit.get("serial_fraction").and_then(Json::as_f64) {
                        Some(s) if (0.0..=1.0).contains(&s) => {}
                        Some(s) => errs.push(format!(
                            "scaling.fits[{i}].serial_fraction {s} outside [0, 1]"
                        )),
                        None => errs.push(format!(
                            "scaling.fits[{i}].serial_fraction missing or not a number"
                        )),
                    }
                }
            }
            None => errs.push("scaling.fits is not an array".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn valid_doc() -> String {
        r#"{
          "schema_version": 5,
          "generated_by": "wino-bench perf",
          "date": "2026-08-07",
          "machine": {"peak_gflops": 100.0, "mem_bw_gbps": 20.0, "threads": 4, "simd": "avx2"},
          "layers": [
            {
              "layer": "VGG 3.2", "impl": "winograd F(4x4)",
              "best_ms": 1.5, "mean_ms": 1.6, "effective_gflops": 120.0, "reps": 3,
              "max_rel_error": 1.3e-6, "predicted_bound": 2.9e-2,
              "execution": {"backend": "winograd-mono", "fallback": "jit-unavailable"},
              "stages": [
                {"stage": "elementwise-gemm", "wall_ms": 0.7, "cpu_ms": 2.1, "spans": 1,
                 "gflops": 90.0, "arith_intensity": 3.5, "bytes": 1000, "roofline_gflops": 70.0}
              ],
              "barrier": {"fork_joins": 4, "max_skew_us": 11.0, "mean_skew_us": 5.0, "total_wait_ms": 0.02}
            }
          ]
        }"#
        .to_string()
    }

    fn valid_serve_doc() -> String {
        r#"{
          "schema_version": 5,
          "generated_by": "wino-bench serve_load",
          "date": "2026-08-07",
          "machine": {"peak_gflops": 100.0, "mem_bw_gbps": 20.0, "threads": 4, "simd": "avx2"},
          "serve": {
            "requests": 10000, "admitted": 9100, "completed": 9050, "failed": 50,
            "shed_overload": 500, "shed_deadline": 100, "shed_predicted": 300,
            "p50_ms": 4.2, "p99_ms": 18.9, "goodput_rps": 830.0, "shed_rate": 0.09,
            "breaker_trips": 3, "pool_rebuilds": 1, "offered_rps": 2000.0,
            "duration_s": 5.0, "deadline_ms": 25.0, "max_batch": 8,
            "batches": 1400, "batch_failures": 9, "breaker_recoveries": 3, "peak_depth": 64,
            "backends": {"winograd-mono": 9000, "im2col": 50},
            "fallbacks": {"numeric-guard": 2}
          },
          "counters": {"alloc-calls": 30500, "memory-demotions": 0}
        }"#
        .to_string()
    }

    fn valid_scaling_doc() -> String {
        r#"{
          "schema_version": 5,
          "generated_by": "wino-bench scaling",
          "date": "2026-08-09",
          "machine": {"peak_gflops": 100.0, "mem_bw_gbps": 20.0, "threads": 4, "simd": "avx2"},
          "scaling": {
            "host_threads": 4, "efficiency_floor": 0.6, "skew_budget_us": 25000,
            "topology": {"domains": 2, "cpus": 4, "smt": 1, "source": "env", "spec": "0-1;2-3"},
            "points": [
              {"layer": "VGG 3.2", "mode": "strong", "threads": 1, "executor": "sharded",
               "best_ms": 4.0, "mean_ms": 4.2, "speedup": 1.0, "efficiency": 1.0,
               "max_skew_us": 0.0, "mean_skew_us": 0.0},
              {"layer": "VGG 3.2", "mode": "strong", "threads": 4,
               "best_ms": 1.25, "speedup": 3.2, "efficiency": 0.8,
               "max_skew_us": 40.0, "mean_skew_us": 11.0},
              {"layer": "VGG 3.2", "mode": "weak", "threads": 4, "batch": 8,
               "best_ms": 4.4, "speedup": 3.6, "efficiency": 0.91}
            ],
            "fits": [{"layer": "VGG 3.2", "serial_fraction": 0.083}]
          }
        }"#
        .to_string()
    }

    #[test]
    fn accepts_valid_document() {
        let doc = parse(&valid_doc()).unwrap();
        validate(&doc).unwrap();
    }

    #[test]
    fn scaling_document_validates_without_layers() {
        let doc = parse(&valid_scaling_doc()).unwrap();
        validate(&doc).unwrap();
    }

    #[test]
    fn scaling_section_is_field_checked() {
        // Required top-level number missing.
        let bad = valid_scaling_doc().replace("\"efficiency_floor\": 0.6, ", "");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("scaling.efficiency_floor")), "{errs:?}");
        // Unknown sweep mode.
        let bad = valid_scaling_doc().replace("\"mode\": \"weak\"", "\"mode\": \"diagonal\"");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not a known mode")), "{errs:?}");
        // Point missing a required numeric column.
        let bad = valid_scaling_doc().replace("\"speedup\": 3.6, ", "");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("speedup")), "{errs:?}");
        // Serial fraction outside [0, 1].
        let bad = valid_scaling_doc().replace("\"serial_fraction\": 0.083", "\"serial_fraction\": 1.5");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("outside [0, 1]")), "{errs:?}");
        // Empty points array.
        let bad = valid_scaling_doc().replace("\"points\": [", "\"pointz\": [");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("scaling.points missing")), "{errs:?}");
        // Topology provenance is type-checked when present.
        let bad = valid_scaling_doc().replace("\"source\": \"env\"", "\"source\": 3");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("scaling.topology.source")), "{errs:?}");
    }

    #[test]
    fn rejects_wrong_version() {
        // v4 documents lack the memory fallback code — reject, don't coerce.
        let doc = parse(&valid_doc().replace("\"schema_version\": 5", "\"schema_version\": 4")).unwrap();
        let errs = validate(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("schema_version")));
    }

    #[test]
    fn memory_section_optional_but_checked_when_present() {
        // Well-formed: modeled vs observed plus ladder tallies.
        let with = valid_doc().replace(
            "\"layers\": [",
            "\"memory\": {\"modeled_bytes\": 524288, \"alloc_bytes_peak\": 530000,
              \"alloc_calls\": 12, \"budget_bytes\": 1048576, \"demotions\": 1,
              \"rescues\": 0, \"injected_failures\": 0},\n\"layers\": [",
        );
        validate(&parse(&with).unwrap()).unwrap();
        // Required column missing.
        let bad = with.replace("\"alloc_calls\": 12, ", "");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("memory.alloc_calls")), "{errs:?}");
        // Non-numeric optional column.
        let bad = with.replace("\"demotions\": 1", "\"demotions\": \"one\"");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("memory.demotions")), "{errs:?}");
        // The memory fallback code is a known name (v5).
        let ok = valid_doc().replace("\"fallback\": \"jit-unavailable\"", "\"fallback\": \"memory\"");
        validate(&parse(&ok).unwrap()).unwrap();
        // And serve's shed_memory column is numeric when present.
        let serve = valid_serve_doc()
            .replace("\"breaker_trips\": 3,", "\"breaker_trips\": 3, \"shed_memory\": 41,");
        validate(&parse(&serve).unwrap()).unwrap();
        let bad = valid_serve_doc()
            .replace("\"breaker_trips\": 3,", "\"breaker_trips\": 3, \"shed_memory\": \"some\",");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("serve.shed_memory")), "{errs:?}");
    }

    #[test]
    fn serve_document_validates_without_layers() {
        let doc = parse(&valid_serve_doc()).unwrap();
        validate(&doc).unwrap();
    }

    #[test]
    fn serve_section_is_field_checked() {
        // A required serve column missing.
        let bad = valid_serve_doc().replace("\"p99_ms\": 18.9, ", "");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("serve.p99_ms")), "{errs:?}");
        // Non-numeric required column.
        let bad = valid_serve_doc().replace("\"shed_rate\": 0.09", "\"shed_rate\": \"low\"");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("serve.shed_rate")));
        // Non-numeric optional column (a batcher tally).
        let bad = valid_serve_doc().replace("\"peak_depth\": 64", "\"peak_depth\": \"deep\"");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("serve.peak_depth")), "{errs:?}");
        // Unknown backend tally name.
        let bad = valid_serve_doc().replace("\"im2col\": 50", "\"abacus\": 50");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("serve.backends.abacus")));
        // Unknown fallback tally name.
        let bad = valid_serve_doc().replace("\"numeric-guard\": 2", "\"cosmic-rays\": 2");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("serve.fallbacks.cosmic-rays")));
    }

    #[test]
    fn execution_object_is_name_checked() {
        let bad = valid_doc().replace("winograd-mono", "winograd-warp");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not a known backend")), "{errs:?}");
        let bad = valid_doc().replace("jit-unavailable", "jit-on-vacation");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not a known fallback code")));
        // `fallback` is optional: an execution object without one is fine.
        let ok = valid_doc().replace(", \"fallback\": \"jit-unavailable\"", "");
        validate(&parse(&ok).unwrap()).unwrap();
    }

    #[test]
    fn counters_optional_but_checked_when_present() {
        // Absent: fine (the minimal document has none).
        let doc = parse(&valid_doc()).unwrap();
        assert!(validate(&doc).is_ok());
        // Present and well-formed: fine.
        let with = valid_doc().replace(
            "\"layers\": [",
            "\"counters\": {\"sentinel-trips\": 0, \"sentinel-tiles-checked\": 12},\n\"layers\": [",
        );
        assert!(validate(&parse(&with).unwrap()).is_ok());
        // Unknown counter name or non-numeric tally: rejected.
        let bad = valid_doc()
            .replace("\"layers\": [", "\"counters\": {\"sentinel-typos\": 1},\n\"layers\": [");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("sentinel-typos")));
        let bad = valid_doc()
            .replace("\"layers\": [", "\"counters\": {\"sentinel-trips\": \"no\"},\n\"layers\": [");
        let errs = validate(&parse(&bad).unwrap()).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("sentinel-trips")));
    }

    #[test]
    fn rejects_non_numeric_accuracy_fields() {
        let doc = parse(&valid_doc().replace("\"max_rel_error\": 1.3e-6", "\"max_rel_error\": \"tiny\""))
            .unwrap();
        let errs = validate(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("max_rel_error")));
    }

    #[test]
    fn rejects_unknown_stage_and_missing_fields() {
        let doc = parse(&valid_doc().replace("elementwise-gemm", "warp-drive")).unwrap();
        let errs = validate(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not a known category")));

        let doc = parse(&valid_doc().replace("\"barrier\"", "\"barrierz\"")).unwrap();
        let errs = validate(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("barrier missing")));
    }

    #[test]
    fn rejects_empty_layers_and_stages() {
        let doc = parse(r#"{"schema_version": 5, "generated_by": "x", "date": "d",
            "machine": {"peak_gflops": 1, "mem_bw_gbps": 1, "threads": 1, "simd": "scalar"},
            "layers": []}"#)
        .unwrap();
        let errs = validate(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("'layers' is empty")));
        // And a document with neither layers nor serve is rejected.
        let doc = parse(r#"{"schema_version": 5, "generated_by": "x", "date": "d",
            "machine": {"peak_gflops": 1, "mem_bw_gbps": 1, "threads": 1, "simd": "scalar"}}"#)
        .unwrap();
        let errs = validate(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("missing 'layers'")));
    }

    #[test]
    fn rejects_stage_without_work_fields() {
        let stripped = valid_doc()
            .replace("\"gflops\": 90.0, \"arith_intensity\": 3.5, ", "");
        let doc = parse(&stripped).unwrap();
        let errs = validate(&doc).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("work model missing")));
    }
}
