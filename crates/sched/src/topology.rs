//! CPU topology detection and the process-wide thread-count policy.
//!
//! The paper's scalability results (§7) are taken on a 64-core KNL where
//! *where* a thread runs matters as much as how many there are: last-level
//! caches are not uniform, and a fork–join whose participants straddle
//! cache domains pays for it at every barrier. This module gives the rest
//! of the workspace one place to answer two questions:
//!
//! 1. **What does the machine look like?** [`Topology::detect`] groups
//!    online CPUs into *domains* — the set of CPUs sharing a last-level
//!    cache (a CCX on Zen, a socket on most Intel parts) — by reading
//!    Linux sysfs. The same reader runs against pinned fixture trees in
//!    tests ([`Topology::from_sysfs`] takes any directory shaped like
//!    `/sys/devices/system/cpu`), and the `WINO_TOPOLOGY` environment
//!    variable overrides detection entirely with a parsable spec, so CI
//!    runs are deterministic on any host.
//! 2. **How many threads should a pool have?** [`configured_threads`] is
//!    the single sizing policy: the `WINO_THREADS` override when set,
//!    otherwise every online CPU of the detected topology. All former
//!    ad-hoc `available_parallelism` call sites route through it.
//!
//! # The `WINO_TOPOLOGY` spec
//!
//! Three forms, checked in order:
//!
//! * `K x M` (e.g. `2x8`) — `K` domains of `M` consecutive CPU ids each;
//!   `K x M x S` additionally declares `S`-way SMT (ids still consecutive,
//!   `M · S` CPUs per domain).
//! * a `;`-separated list of sysfs *cpulists* (e.g. `0-3,16-19;4-7`),
//!   optionally prefixed `smtS:` — exactly the format
//!   [`Topology::to_spec`] renders, so specs round-trip.
//! * a bare integer `N` — one flat domain of `N` CPUs.
//!
//! ```
//! use wino_sched::topology::Topology;
//!
//! let t = Topology::from_spec("2x4").unwrap();
//! assert_eq!(t.domains().len(), 2);
//! assert_eq!(t.total_cpus(), 8);
//! assert_eq!(t.domains()[1].cpus, vec![4, 5, 6, 7]);
//!
//! // to_spec() renders the cpulist form, which parses back losslessly.
//! let spec = t.to_spec();
//! assert_eq!(spec, "0-3;4-7");
//! assert_eq!(Topology::from_spec(&spec).unwrap().domains(), t.domains());
//! ```
//!
//! # Affinity
//!
//! [`pin_current_thread`] restricts the calling thread to a CPU set via a
//! raw `sched_setaffinity` syscall (no libc dependency). It is always
//! best-effort: on non-Linux targets or when the kernel refuses it
//! returns a typed error and the caller proceeds unpinned — pinning is a
//! locality optimisation, never a correctness requirement.

use std::path::Path;

/// Where a [`Topology`] came from — recorded so reports can state their
/// provenance (`BENCH_scaling.json` carries it verbatim).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySource {
    /// Parsed from the `WINO_TOPOLOGY` environment override.
    Env,
    /// Read from a sysfs tree (`/sys/devices/system/cpu` or a fixture).
    Sysfs,
    /// Fallback: one flat domain sized by `available_parallelism`.
    Flat,
}

impl TopologySource {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TopologySource::Env => "env",
            TopologySource::Sysfs => "sysfs",
            TopologySource::Flat => "flat",
        }
    }
}

/// One scheduling domain: the CPUs sharing a last-level cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Domain {
    /// Dense domain index, `0..topology.domains().len()`.
    pub id: usize,
    /// The physical package (socket) the domain belongs to.
    pub package: usize,
    /// Sorted online CPU ids in the domain. Never empty.
    pub cpus: Vec<usize>,
}

/// The machine's CPU layout as a list of last-level-cache domains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    domains: Vec<Domain>,
    smt_per_core: usize,
    source: TopologySource,
}

/// Why a spec or sysfs tree could not be turned into a [`Topology`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// A `WINO_TOPOLOGY` spec that parses to nothing or malformed fields.
    BadSpec(String),
    /// A sysfs tree missing the files the reader requires.
    Sysfs(String),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::BadSpec(m) => write!(f, "bad topology spec: {m}"),
            TopologyError::Sysfs(m) => write!(f, "sysfs topology read failed: {m}"),
        }
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Detect the host topology: the `WINO_TOPOLOGY` override when set
    /// (a malformed spec falls through — detection must never fail),
    /// otherwise Linux sysfs, otherwise one flat domain of
    /// `available_parallelism` CPUs. Reads the environment on every call;
    /// topology lookups happen at pool construction, which is rare, and
    /// not caching keeps the override testable.
    pub fn detect() -> Topology {
        if let Ok(spec) = std::env::var("WINO_TOPOLOGY") {
            if let Ok(t) = Topology::from_spec(&spec) {
                return t;
            }
        }
        if let Ok(t) = Topology::from_sysfs(Path::new("/sys/devices/system/cpu")) {
            return t;
        }
        let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Topology::flat(n)
    }

    /// One flat domain of `n` CPUs (ids `0..n`), no SMT information.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn flat(n: usize) -> Topology {
        assert!(n > 0, "a topology needs at least one CPU");
        Topology {
            domains: vec![Domain { id: 0, package: 0, cpus: (0..n).collect() }],
            smt_per_core: 1,
            source: TopologySource::Flat,
        }
    }

    /// Parse a `WINO_TOPOLOGY` spec (see the module docs for the grammar).
    pub fn from_spec(spec: &str) -> Result<Topology, TopologyError> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(TopologyError::BadSpec("empty spec".into()));
        }
        // `KxM` / `KxMxS` form: all-integer fields joined by 'x'.
        if spec.contains('x') {
            let parts: Vec<&str> = spec.split('x').collect();
            let nums: Option<Vec<usize>> = parts.iter().map(|p| p.trim().parse().ok()).collect();
            let nums = nums
                .ok_or_else(|| TopologyError::BadSpec(format!("'{spec}' is not KxM or KxMxS")))?;
            let (k, m, s) = match nums.as_slice() {
                [k, m] => (*k, *m, 1),
                [k, m, s] => (*k, *m, *s),
                _ => return Err(TopologyError::BadSpec(format!("'{spec}' has too many 'x' fields"))),
            };
            if k == 0 || m == 0 || s == 0 {
                return Err(TopologyError::BadSpec(format!("'{spec}' has a zero field")));
            }
            let per = m * s;
            let domains = (0..k)
                .map(|d| Domain { id: d, package: d, cpus: (d * per..(d + 1) * per).collect() })
                .collect();
            return Ok(Topology { domains, smt_per_core: s, source: TopologySource::Env });
        }
        // `smtS:` prefix on the cpulist form.
        let (smt, lists) = match spec.split_once(':') {
            Some((pre, rest)) if pre.starts_with("smt") => {
                let s: usize = pre[3..]
                    .parse()
                    .map_err(|_| TopologyError::BadSpec(format!("bad smt prefix '{pre}'")))?;
                if s == 0 {
                    return Err(TopologyError::BadSpec("smt0 is meaningless".into()));
                }
                (s, rest)
            }
            Some((pre, _)) => {
                return Err(TopologyError::BadSpec(format!("unknown prefix '{pre}'")));
            }
            None => (1, spec),
        };
        // Bare integer: one flat domain.
        if !lists.contains([';', ',', '-']) {
            let n: usize = lists
                .parse()
                .map_err(|_| TopologyError::BadSpec(format!("'{lists}' is not a CPU count")))?;
            if n == 0 {
                return Err(TopologyError::BadSpec("0 CPUs".into()));
            }
            let mut t = Topology::flat(n);
            t.smt_per_core = smt;
            t.source = TopologySource::Env;
            return Ok(t);
        }
        // `;`-separated cpulists.
        let mut domains = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (id, list) in lists.split(';').enumerate() {
            let cpus = parse_cpulist(list)?;
            if cpus.is_empty() {
                return Err(TopologyError::BadSpec(format!("domain {id} is empty")));
            }
            for &c in &cpus {
                if !seen.insert(c) {
                    return Err(TopologyError::BadSpec(format!("cpu {c} in two domains")));
                }
            }
            domains.push(Domain { id, package: id, cpus });
        }
        Ok(Topology { domains, smt_per_core: smt, source: TopologySource::Env })
    }

    /// Render the spec form that [`Topology::from_spec`] parses back to
    /// the same domains and SMT width (the round-trip the fixture tests
    /// pin): `;`-joined cpulists, `smtS:`-prefixed when `S > 1`.
    pub fn to_spec(&self) -> String {
        let lists: Vec<String> = self.domains.iter().map(|d| render_cpulist(&d.cpus)).collect();
        let body = lists.join(";");
        if self.smt_per_core > 1 {
            format!("smt{}:{body}", self.smt_per_core)
        } else {
            body
        }
    }

    /// Read a sysfs CPU directory — `/sys/devices/system/cpu` on a live
    /// host, or a fixture tree with the same shape. Requires `online`
    /// (a cpulist); per-CPU files are optional with flat fallbacks:
    /// `cpuN/topology/physical_package_id` (default 0),
    /// `cpuN/cache/index3/shared_cpu_list` (default: the whole package),
    /// `cpuN/topology/thread_siblings_list` (default: the CPU alone).
    pub fn from_sysfs(cpu_dir: &Path) -> Result<Topology, TopologyError> {
        let online_path = cpu_dir.join("online");
        let online_text = std::fs::read_to_string(&online_path)
            .map_err(|e| TopologyError::Sysfs(format!("{}: {e}", online_path.display())))?;
        let online = parse_cpulist(&online_text)?;
        if online.is_empty() {
            return Err(TopologyError::Sysfs("no online CPUs".into()));
        }
        let online_set: std::collections::HashSet<usize> = online.iter().copied().collect();

        let read_opt = |rel: String| -> Option<String> {
            std::fs::read_to_string(cpu_dir.join(rel)).ok().map(|s| s.trim().to_string())
        };

        // Group CPUs into LLC domains. Key: (package, min online CPU of
        // the shared-LLC set) — the min CPU names the group; the package
        // disambiguates trees that report no cache file at all.
        let mut groups: std::collections::BTreeMap<(usize, usize), Vec<usize>> =
            std::collections::BTreeMap::new();
        let mut smt = 1usize;
        for &cpu in &online {
            let package = read_opt(format!("cpu{cpu}/topology/physical_package_id"))
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let llc: Vec<usize> = read_opt(format!("cpu{cpu}/cache/index3/shared_cpu_list"))
                .and_then(|s| parse_cpulist(&s).ok())
                .unwrap_or_default()
                .into_iter()
                .filter(|c| online_set.contains(c))
                .collect();
            let key_cpu = llc.first().copied().unwrap_or(usize::MAX); // MAX ⇒ per-package group
            let siblings = read_opt(format!("cpu{cpu}/topology/thread_siblings_list"))
                .and_then(|s| parse_cpulist(&s).ok())
                .map(|v| v.into_iter().filter(|c| online_set.contains(c)).count())
                .unwrap_or(1);
            smt = smt.max(siblings.max(1));
            groups.entry((package, key_cpu)).or_default().push(cpu);
        }
        let mut domains: Vec<Domain> = groups
            .into_iter()
            .map(|((package, _), mut cpus)| {
                cpus.sort_unstable();
                Domain { id: 0, package, cpus }
            })
            .collect();
        domains.sort_by_key(|d| (d.package, d.cpus[0]));
        for (i, d) in domains.iter_mut().enumerate() {
            d.id = i;
        }
        Ok(Topology { domains, smt_per_core: smt, source: TopologySource::Sysfs })
    }

    /// The last-level-cache domains, sorted by (package, first CPU).
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Total online CPUs across all domains.
    pub fn total_cpus(&self) -> usize {
        self.domains.iter().map(|d| d.cpus.len()).sum()
    }

    /// Hardware threads per core (1 when SMT is off or unknown).
    pub fn smt_per_core(&self) -> usize {
        self.smt_per_core
    }

    /// Where this topology came from.
    pub fn source(&self) -> TopologySource {
        self.source
    }
}

/// Parse a sysfs cpulist (`"0-3,8,10-11"`) into sorted CPU ids.
pub fn parse_cpulist(s: &str) -> Result<Vec<usize>, TopologyError> {
    let mut out = Vec::new();
    for part in s.trim().split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo
                    .trim()
                    .parse()
                    .map_err(|_| TopologyError::BadSpec(format!("bad range start '{part}'")))?;
                let hi: usize = hi
                    .trim()
                    .parse()
                    .map_err(|_| TopologyError::BadSpec(format!("bad range end '{part}'")))?;
                if hi < lo {
                    return Err(TopologyError::BadSpec(format!("inverted range '{part}'")));
                }
                out.extend(lo..=hi);
            }
            None => out.push(
                part.parse()
                    .map_err(|_| TopologyError::BadSpec(format!("bad cpu id '{part}'")))?,
            ),
        }
    }
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Render sorted CPU ids as a sysfs cpulist, folding runs into ranges.
pub fn render_cpulist(cpus: &[usize]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < cpus.len() {
        let start = cpus[i];
        let mut end = start;
        while i + 1 < cpus.len() && cpus[i + 1] == end + 1 {
            i += 1;
            end = cpus[i];
        }
        if !out.is_empty() {
            out.push(',');
        }
        if end > start {
            out.push_str(&format!("{start}-{end}"));
        } else {
            out.push_str(&format!("{start}"));
        }
        i += 1;
    }
    out
}

/// The process-wide thread-count policy — the one replacement for every
/// former ad-hoc `available_parallelism()` call site. `WINO_THREADS`
/// (a positive integer) wins when set and parseable; otherwise the count
/// is every online CPU of [`Topology::detect`] (which itself honours
/// `WINO_TOPOLOGY`). Read on every call, like
/// [`crate::pool::default_deadline`], so overrides stay testable.
pub fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("WINO_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    Topology::detect().total_cpus()
}

/// The L2 share assumed when neither sysfs nor CPUID describes the cache.
const FALLBACK_L2_BYTES: usize = 1 << 20;

/// `(bytes, sharers)` of the first online CPU's level-`level` cache: from
/// sysfs, else from CPUID leaf 4 on x86-64.
fn detected_cache(level: u32) -> Option<(usize, usize)> {
    cache_from_sysfs(Path::new("/sys/devices/system/cpu"), level).or_else(|| cache_from_cpuid(level))
}

/// The last-level figure of the caches `cache` describes by level: the
/// whole of the highest level past the L2, else one CPU's share of the L2.
fn llc_of(cache: impl Fn(u32) -> Option<(usize, usize)>) -> Option<usize> {
    let whole = [4, 3].into_iter().find_map(&cache).map(|(bytes, _)| bytes);
    whole.or_else(|| cache(2).map(|(bytes, sharers)| bytes / sharers.max(1)))
}

/// The L2 capacity one hardware thread can count on, in bytes: the size of
/// the first online CPU's L2 divided by the CPUs that share it (SMT
/// siblings, or a cluster behind one L2), or 1 MiB when neither sysfs nor
/// CPUID describes it. Read once per process. `wino-conv` sizes its
/// per-thread ring from it and decides from it whether a layer's kernel
/// transforms stay cache-resident.
pub fn l2_bytes_per_thread() -> usize {
    static L2: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *L2.get_or_init(|| {
        detected_cache(2).map_or(FALLBACK_L2_BYTES, |(bytes, sharers)| bytes / sharers.max(1))
    })
}

/// The size of the last-level cache, in bytes: the whole of the highest
/// cache level past the L2 that the first online CPU reports — the threads
/// of one fork–join share it, and so do the buffers they hand from one
/// fork–join to the next — or, on a host without one (a KNL), the figure
/// of [`l2_bytes_per_thread`]. Read once per process. `wino-conv` decides
/// from it whether a plan's stores bypass the cache.
pub fn llc_bytes() -> usize {
    static LLC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *LLC.get_or_init(|| llc_of(detected_cache).unwrap_or(FALLBACK_L2_BYTES))
}

/// Parse a sysfs cache `size` file: `"2048K"`, `"1M"`, or plain bytes.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, unit) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1 << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1 << 20),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok()?.checked_mul(unit).filter(|&bytes| bytes > 0)
}

/// `(bytes, online sharers)` of the first online CPU's level-`level` cache
/// in a sysfs CPU directory (a live `/sys/devices/system/cpu` or a fixture
/// tree): `index{level}/size`, and the online CPUs of
/// `index{level}/shared_cpu_list` (the CPU alone when the list is
/// missing). `None` when the tree has no such index, its `size` does not
/// parse, or its `level` file names another level.
fn cache_from_sysfs(cpu_dir: &Path, level: u32) -> Option<(usize, usize)> {
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let online = parse_cpulist(&read(cpu_dir.join("online"))?).ok()?;
    let cache = cpu_dir.join(format!("cpu{}/cache/index{level}", online.first()?));
    if read(cache.join("level")).is_some_and(|l| l.trim().parse::<u32>() != Ok(level)) {
        return None;
    }
    let size = parse_cache_size(&read(cache.join("size"))?)?;
    let sharers = read(cache.join("shared_cpu_list"))
        .and_then(|list| parse_cpulist(&list).ok())
        .map_or(1, |cpus| cpus.iter().filter(|c| online.contains(c)).count());
    Some((size, sharers))
}

/// `(bytes, sharers)` of the calling CPU's level-`level` data or unified
/// cache from CPUID leaf 4 (deterministic cache parameters): ways ×
/// partitions × line × sets, and the logical processors the leaf says
/// share it.
#[cfg(target_arch = "x86_64")]
fn cache_from_cpuid(level: u32) -> Option<(usize, usize)> {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    if __cpuid(0).eax < 4 {
        return None;
    }
    // Sub-leaves enumerate the caches; type 0 ends the list.
    (0..32)
        .map(|sub| __cpuid_count(4, sub))
        .take_while(|r| r.eax & 0x1f != 0)
        .find(|r| (r.eax >> 5) & 0x7 == level && matches!(r.eax & 0x1f, 1 | 3))
        .map(|r| {
            let field = |reg: u32, shift: u32, bits: u32| ((reg >> shift) & ((1 << bits) - 1)) as usize + 1;
            let bytes = field(r.ebx, 22, 10) * field(r.ebx, 12, 10) * field(r.ebx, 0, 12) * (r.ecx as usize + 1);
            (bytes, field(r.eax, 14, 12))
        })
}

/// No CPUID off x86-64.
#[cfg(not(target_arch = "x86_64"))]
fn cache_from_cpuid(_level: u32) -> Option<(usize, usize)> {
    None
}

/// Typed failure of [`pin_current_thread`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AffinityError {
    /// The CPU set was empty (or contained only ids ≥ 1024).
    EmptySet,
    /// This target has no affinity syscall wired up (non-Linux/x86-64).
    Unsupported,
    /// The kernel refused; contains the negated errno.
    Syscall(i32),
}

impl std::fmt::Display for AffinityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AffinityError::EmptySet => write!(f, "empty CPU set"),
            AffinityError::Unsupported => write!(f, "thread affinity unsupported on this target"),
            AffinityError::Syscall(e) => write!(f, "sched_setaffinity failed (errno {e})"),
        }
    }
}

impl std::error::Error for AffinityError {}

/// Restrict the calling thread to `cpus` (best effort, Linux/x86-64 via a
/// raw `sched_setaffinity` syscall — the workspace carries no libc
/// dependency). CPU ids ≥ 1024 are ignored; an error leaves the thread's
/// affinity unchanged. Callers treat failure as "run unpinned".
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_current_thread(cpus: &[usize]) -> Result<(), AffinityError> {
    const MASK_WORDS: usize = 16; // 1024 CPUs
    let mut mask = [0u64; MASK_WORDS];
    let mut any = false;
    for &c in cpus {
        if c < MASK_WORDS * 64 {
            mask[c / 64] |= 1u64 << (c % 64);
            any = true;
        }
    }
    if !any {
        return Err(AffinityError::EmptySet);
    }
    let ret: isize;
    // SAFETY: raw x86-64 Linux syscall 203 (sched_setaffinity) with
    // pid 0 (the calling thread), a correctly sized in-memory CPU mask
    // that outlives the call, and the kernel-clobbered rcx/r11 declared
    // as clobbers. The syscall only reads the mask and mutates kernel
    // scheduling state — no Rust-visible memory is written.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    if ret < 0 {
        Err(AffinityError::Syscall(ret as i32))
    } else {
        Ok(())
    }
}

/// Fallback for targets without a wired-up affinity syscall.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_current_thread(_cpus: &[usize]) -> Result<(), AffinityError> {
    Err(AffinityError::Unsupported)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fixture(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/sysfs").join(name)
    }

    // ---- cpulist parsing ----

    #[test]
    fn cpulist_parses_ranges_singles_and_mixtures() {
        assert_eq!(parse_cpulist("0-3").unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(parse_cpulist("5").unwrap(), vec![5]);
        assert_eq!(parse_cpulist("0-1,4,6-7").unwrap(), vec![0, 1, 4, 6, 7]);
        assert_eq!(parse_cpulist(" 2 , 0 ").unwrap(), vec![0, 2]);
        assert_eq!(parse_cpulist("3,3,1-3").unwrap(), vec![1, 2, 3], "dedup + sort");
        assert!(parse_cpulist("4-2").is_err(), "inverted range");
        assert!(parse_cpulist("a-b").is_err());
    }

    #[test]
    fn cpulist_renders_runs_as_ranges_and_round_trips() {
        for cpus in [vec![0], vec![0, 1, 2, 3], vec![0, 2, 4], vec![0, 1, 5, 7, 8, 9]] {
            let rendered = render_cpulist(&cpus);
            assert_eq!(parse_cpulist(&rendered).unwrap(), cpus, "{rendered}");
        }
        assert_eq!(render_cpulist(&[0, 1, 2, 3]), "0-3");
        assert_eq!(render_cpulist(&[4]), "4");
        assert_eq!(render_cpulist(&[0, 2, 3]), "0,2-3");
    }

    // ---- spec parsing ----

    #[test]
    fn spec_kxm_and_kxmxs_forms() {
        let t = Topology::from_spec("2x4").unwrap();
        assert_eq!(t.domains().len(), 2);
        assert_eq!(t.total_cpus(), 8);
        assert_eq!(t.smt_per_core(), 1);
        assert_eq!(t.domains()[0].cpus, vec![0, 1, 2, 3]);
        assert_eq!(t.domains()[1].cpus, vec![4, 5, 6, 7]);
        assert_eq!(t.source(), TopologySource::Env);

        let t = Topology::from_spec("4x2x2").unwrap();
        assert_eq!(t.domains().len(), 4);
        assert_eq!(t.total_cpus(), 16);
        assert_eq!(t.smt_per_core(), 2);
    }

    #[test]
    fn spec_bare_integer_and_cpulist_forms() {
        let t = Topology::from_spec("6").unwrap();
        assert_eq!(t.domains().len(), 1);
        assert_eq!(t.total_cpus(), 6);

        let t = Topology::from_spec("0-3,16-19;4-7").unwrap();
        assert_eq!(t.domains().len(), 2);
        assert_eq!(t.domains()[0].cpus, vec![0, 1, 2, 3, 16, 17, 18, 19]);
        assert_eq!(t.domains()[1].cpus, vec![4, 5, 6, 7]);

        let t = Topology::from_spec("smt2:0-7;8-15").unwrap();
        assert_eq!(t.smt_per_core(), 2);
        assert_eq!(t.total_cpus(), 16);
    }

    #[test]
    fn spec_rejects_malformed_inputs() {
        for bad in ["", "0", "0x4", "2x0", "axb", "2x2x2x2", "smt0:0-3", "huh:0-3", "0-3;2-5", "1-0"]
        {
            assert!(Topology::from_spec(bad).is_err(), "spec '{bad}' must be rejected");
        }
    }

    #[test]
    fn spec_round_trips_through_to_spec() {
        for spec in ["2x4", "4x2x2", "0-3;4-7", "smt2:0-7;8-15", "3"] {
            let t = Topology::from_spec(spec).unwrap();
            let rendered = t.to_spec();
            let back = Topology::from_spec(&rendered).unwrap();
            assert_eq!(back.domains(), t.domains(), "spec '{spec}' → '{rendered}'");
            assert_eq!(back.smt_per_core(), t.smt_per_core());
        }
    }

    // ---- sysfs fixtures (the CI round-trip gate) ----

    #[test]
    fn fixture_one_socket_is_one_domain() {
        let t = Topology::from_sysfs(&fixture("one-socket")).unwrap();
        assert_eq!(t.source(), TopologySource::Sysfs);
        assert_eq!(t.domains().len(), 1);
        assert_eq!(t.domains()[0].cpus, vec![0, 1, 2, 3]);
        assert_eq!(t.smt_per_core(), 1);
        assert_eq!(t.to_spec(), "0-3");
    }

    #[test]
    fn fixture_two_socket_splits_on_package() {
        let t = Topology::from_sysfs(&fixture("two-socket")).unwrap();
        assert_eq!(t.domains().len(), 2);
        assert_eq!(t.domains()[0].package, 0);
        assert_eq!(t.domains()[1].package, 1);
        assert_eq!(t.domains()[0].cpus, vec![0, 1, 2, 3]);
        assert_eq!(t.domains()[1].cpus, vec![4, 5, 6, 7]);
        assert_eq!(t.smt_per_core(), 1);
    }

    #[test]
    fn fixture_ccx_splits_one_socket_by_llc_with_smt() {
        // One package, two L3 complexes, 2-way SMT with the Linux
        // convention of sibling ids offset by the core count (0↔8 etc.).
        let t = Topology::from_sysfs(&fixture("ccx")).unwrap();
        assert_eq!(t.domains().len(), 2);
        assert_eq!(t.domains()[0].package, 0);
        assert_eq!(t.domains()[1].package, 0);
        assert_eq!(t.domains()[0].cpus, vec![0, 1, 2, 3, 8, 9, 10, 11]);
        assert_eq!(t.domains()[1].cpus, vec![4, 5, 6, 7, 12, 13, 14, 15]);
        assert_eq!(t.smt_per_core(), 2);
    }

    #[test]
    fn fixtures_round_trip_through_spec() {
        // The satellite gate: sysfs fixture → topology → spec → topology
        // reproduces the same domains and SMT width for every layout.
        for name in ["one-socket", "two-socket", "ccx"] {
            let t = Topology::from_sysfs(&fixture(name)).unwrap();
            let back = Topology::from_spec(&t.to_spec()).unwrap();
            assert_eq!(back.domains().len(), t.domains().len(), "{name}");
            for (a, b) in back.domains().iter().zip(t.domains()) {
                assert_eq!(a.cpus, b.cpus, "{name}");
            }
            assert_eq!(back.smt_per_core(), t.smt_per_core(), "{name}");
        }
    }

    // ---- L2 share ----

    #[test]
    fn cache_size_parses_sysfs_spellings_and_rejects_garbage() {
        assert_eq!(parse_cache_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_cache_size("1M"), Some(1 << 20));
        assert_eq!(parse_cache_size(" 65536 "), Some(65536));
        for bad in ["", "K", "big", "12Q", "-4K", "0K", "1.5M"] {
            assert_eq!(parse_cache_size(bad), None, "'{bad}'");
        }
    }

    #[test]
    fn l2_share_is_private_halved_under_smt_and_absent_without_index2() {
        // A private 2 MiB L2, a 1 MiB L2 shared by two SMT siblings, and a
        // tree that describes no L2 at all.
        let l2 = |tree: &Path| cache_from_sysfs(tree, 2).map(|(bytes, sharers)| bytes / sharers);
        assert_eq!(l2(&fixture("one-socket")), Some(2 << 20));
        assert_eq!(l2(&fixture("ccx")), Some(512 << 10));
        assert_eq!(l2(&fixture("two-socket")), None);
        assert_eq!(l2(Path::new("/nonexistent-sysfs")), None);
    }

    #[test]
    fn llc_is_the_whole_l3_else_the_l2_share_else_absent() {
        // An 8 MiB L3 shared by four CPUs counts whole. A tree whose L3
        // `size` is garbage has no usable L3 and falls back to its L2
        // share; one whose `index3` carries no size, beside no L2, has no
        // figure at all (`llc_bytes` then assumes the 1 MiB of the L2 fallback).
        let llc = |tree: &str| llc_of(|level| cache_from_sysfs(&fixture(tree), level));
        assert_eq!(llc("one-socket"), Some(8 << 20));
        assert_eq!(llc("ccx"), Some(512 << 10));
        assert_eq!(llc("two-socket"), None);
        // `index2` is not consulted for level 3, nor the other way round.
        assert_eq!(cache_from_sysfs(&fixture("one-socket"), 3), Some((8 << 20, 4)));
        assert_eq!(cache_from_sysfs(&fixture("one-socket"), 4), None);
    }

    #[test]
    fn detected_l2_is_cached_and_plausible() {
        let l2 = l2_bytes_per_thread();
        assert!((32 << 10..=256 << 20).contains(&l2), "{l2} B of L2 per thread");
        assert_eq!(l2_bytes_per_thread(), l2);
    }

    #[test]
    fn detected_llc_is_cached_and_plausible() {
        let llc = llc_bytes();
        assert!(llc >= l2_bytes_per_thread() && llc <= 4 << 30, "{llc} B of last-level cache");
        assert_eq!(llc_bytes(), llc);
    }

    #[test]
    fn sysfs_missing_online_file_errors() {
        let err = Topology::from_sysfs(Path::new("/nonexistent-sysfs")).unwrap_err();
        assert!(matches!(err, TopologyError::Sysfs(_)));
    }

    // ---- detection and sizing policy ----

    #[test]
    fn detect_never_panics_and_has_cpus() {
        let t = Topology::detect();
        assert!(t.total_cpus() >= 1);
        assert!(!t.domains().is_empty());
        assert!(t.domains().iter().all(|d| !d.cpus.is_empty()));
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn flat_topology_shape() {
        let t = Topology::flat(3);
        assert_eq!(t.domains().len(), 1);
        assert_eq!(t.total_cpus(), 3);
        assert_eq!(t.source(), TopologySource::Flat);
        assert_eq!(t.source().name(), "flat");
    }

    // ---- affinity ----

    #[test]
    fn pin_rejects_empty_set() {
        assert_eq!(pin_current_thread(&[]), Err(AffinityError::EmptySet).map_err(|e| {
            // On non-Linux targets Unsupported wins; both are "no pin".
            if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
                e
            } else {
                AffinityError::Unsupported
            }
        }));
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn pin_to_an_online_cpu_succeeds_and_restores() {
        let t = Topology::detect();
        let all: Vec<usize> = t.domains().iter().flat_map(|d| d.cpus.iter().copied()).collect();
        // Pin to the first online CPU, then back to the full set.
        pin_current_thread(&all[..1]).expect("pin to one cpu");
        pin_current_thread(&all).expect("restore full mask");
    }
}
