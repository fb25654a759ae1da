//! What the workspace reads of the host: how many threads a pool gets ([`configured_threads`]) and the two cache figures the
//! planner's rules read ([`l2_bytes_per_thread`], [`llc_bytes`]).
//!
//! All three come from Linux sysfs (`/sys/devices/system/cpu`); the same
//! readers run against pinned fixture trees in tests, since they take any
//! directory of that shape. Off Linux the cache figures fall back to CPUID
//! leaf 4 and the thread count to `available_parallelism`.

use std::path::Path;

/// The live sysfs CPU directory.
const SYSFS_CPU: &str = "/sys/devices/system/cpu";

/// Parse a sysfs cpulist (`"0-3,8,10-11"`) into sorted CPU ids; `None`
/// on a malformed id or an inverted range.
pub fn parse_cpulist(s: &str) -> Option<Vec<usize>> {
    let mut out = Vec::new();
    for part in s.trim().split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.split_once('-') {
            Some((lo, hi)) => {
                let (lo, hi): (usize, usize) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
                if hi < lo {
                    return None;
                }
                out.extend(lo..=hi);
            }
            None => out.push(part.parse().ok()?),
        }
    }
    out.sort_unstable();
    out.dedup();
    Some(out)
}

/// The process-wide thread-count policy — the one replacement for every
/// ad-hoc `available_parallelism()` call site. `WINO_THREADS` (a positive
/// integer) wins when set and parseable; otherwise every online CPU that
/// sysfs lists, otherwise `available_parallelism`. Read on every call, so
/// overrides stay testable.
pub fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("WINO_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    online_cpus(Path::new(SYSFS_CPU))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The number of CPUs in a sysfs CPU directory's `online` cpulist; `None`
/// when the file is missing, malformed or empty.
fn online_cpus(cpu_dir: &Path) -> Option<usize> {
    let online = parse_cpulist(&std::fs::read_to_string(cpu_dir.join("online")).ok()?)?;
    Some(online.len()).filter(|&n| n > 0)
}

/// The L2 share assumed when neither sysfs nor CPUID describes the cache.
const FALLBACK_L2_BYTES: usize = 1 << 20;

/// `(bytes, sharers)` of the first online CPU's level-`level` cache: from
/// sysfs, else from CPUID leaf 4 on x86-64.
fn detected_cache(level: u32) -> Option<(usize, usize)> {
    cache_from_sysfs(Path::new(SYSFS_CPU), level).or_else(|| cache_from_cpuid(level))
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
    let online = parse_cpulist(&read(cpu_dir.join("online"))?)?;
    let cache = cpu_dir.join(format!("cpu{}/cache/index{level}", online.first()?));
    if read(cache.join("level")).is_some_and(|l| l.trim().parse::<u32>() != Ok(level)) {
        return None;
    }
    let size = parse_cache_size(&read(cache.join("size"))?)?;
    let sharers = read(cache.join("shared_cpu_list"))
        .and_then(|list| parse_cpulist(&list))
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn fixture(name: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/sysfs").join(name)
    }

    // ---- thread count ----

    #[test]
    fn cpulist_parses_ranges_singles_and_mixtures() {
        assert_eq!(parse_cpulist("0-3").unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(parse_cpulist("5").unwrap(), vec![5]);
        assert_eq!(parse_cpulist("0-1,4,6-7").unwrap(), vec![0, 1, 4, 6, 7]);
        assert_eq!(parse_cpulist(" 2 , 0 ").unwrap(), vec![0, 2]);
        assert_eq!(parse_cpulist("3,3,1-3").unwrap(), vec![1, 2, 3], "dedup + sort");
        assert_eq!(parse_cpulist("4-2"), None, "inverted range");
        assert_eq!(parse_cpulist("a-b"), None);
    }

    #[test]
    fn online_cpus_counts_the_whole_online_list() {
        // One socket of four, two sockets of four, and one socket of two
        // 4-core complexes under 2-way SMT: every online CPU counts.
        assert_eq!(online_cpus(&fixture("one-socket")), Some(4));
        assert_eq!(online_cpus(&fixture("two-socket")), Some(8));
        assert_eq!(online_cpus(&fixture("ccx")), Some(16));
        assert_eq!(online_cpus(Path::new("/nonexistent-sysfs")), None);
    }

    #[test]
    fn configured_threads_is_the_live_online_count_unless_overridden() {
        let n = configured_threads();
        assert!(n >= 1);
        if std::env::var_os("WINO_THREADS").is_none() {
            let want = online_cpus(Path::new(SYSFS_CPU))
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
            assert_eq!(n, want);
        }
    }

    // ---- cache figures ----

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
}
