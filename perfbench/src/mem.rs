//! Allocation and memory accounting: a counting global allocator for
//! `allocs_per_pass` and per-layer allocation counts, and peak resident
//! memory read from `/proc/<pid>/status` (`VmHWM`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Pass-through allocator counting allocation events (alloc + realloc)
/// in every thread of the process.
pub struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter update touches no allocator state.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events so far, process-wide and monotone.
pub fn allocs() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Registers [`allocs`] as the engines' allocation probe, so greedy and
/// scan profiles report their loop allocations.
pub fn install_probes() {
    gcr_cts::set_alloc_probe(allocs);
    gcr_activity::set_alloc_probe(allocs);
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, or of this
/// process for `None`.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_vm_hwm(&status).ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in MB.
fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_in_mb() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(2.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb(None).unwrap() > 0.0);
    }
}
