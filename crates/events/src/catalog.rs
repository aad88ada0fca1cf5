//! The Haswell i5-4590 performance event catalog.
//!
//! The reference platform exposes **more than 86 microarchitectural
//! events, 52 of which are hardware events**, multiplexed onto **8
//! programmable counter registers**. The detector only *collects* the 16
//! events in [`HpcEvent`], but the other hardware events still matter:
//! when more events are programmed than registers exist, the kernel
//! time-slices them and reports scaled estimates, and that multiplexing
//! noise is part of the measured signal. This module provides the full
//! catalog so the PMU model in `hbmd-perf` can reproduce the scheduling
//! pressure of the real platform.

use std::fmt;

use crate::event::{EventKind, HpcEvent};

/// One entry of the platform event catalog.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EventDescriptor {
    /// Canonical `perf` name.
    pub name: String,
    /// Broad category.
    pub kind: EventKind,
    /// The collected-feature identity, when this catalog entry is one of
    /// the 16 events the detector reads.
    pub collected: Option<HpcEvent>,
}

impl fmt::Display for EventDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.kind)
    }
}

/// The Haswell i5-4590 event catalog: 52 hardware events (8 programmable
/// counter registers) plus the software events `perf` lists alongside
/// them.
///
/// # Examples
///
/// ```
/// use hbmd_events::{EventKind, HaswellCatalog};
///
/// let catalog = HaswellCatalog::new();
/// let hardware = catalog.entries().iter().filter(|e| e.kind != EventKind::Software);
/// assert_eq!(hardware.count(), HaswellCatalog::HARDWARE_EVENTS);
/// assert_eq!(HaswellCatalog::PROGRAMMABLE_COUNTERS, 8);
/// let collected = catalog.entries().iter().filter(|e| e.collected.is_some());
/// assert_eq!(collected.count(), 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaswellCatalog {
    entries: Vec<EventDescriptor>,
}

impl HaswellCatalog {
    /// Number of programmable PMU counter registers on the platform.
    pub const PROGRAMMABLE_COUNTERS: usize = 8;

    /// Number of hardware events in the catalog.
    pub const HARDWARE_EVENTS: usize = 52;

    /// Build the catalog.
    pub fn new() -> HaswellCatalog {
        let mut entries = Vec::with_capacity(64);

        // The 16 collected events come first, in feature-column order.
        for event in HpcEvent::ALL {
            entries.push(EventDescriptor {
                name: event.name().to_owned(),
                kind: event.kind(),
                collected: Some(event),
            });
        }

        // Remaining hardware events: present on the platform and eligible
        // for PMU scheduling, but never used as detector features.
        let extra_hardware: [(&str, EventKind); 36] = [
            ("cpu-cycles", EventKind::Core),
            ("instructions", EventKind::Core),
            ("ref-cycles", EventKind::Core),
            ("bus-cycles", EventKind::Core),
            ("stalled-cycles-frontend", EventKind::Core),
            ("stalled-cycles-backend", EventKind::Core),
            ("uops-issued", EventKind::Core),
            ("uops-retired", EventKind::Core),
            ("uops-executed", EventKind::Core),
            ("idq-uops-delivered", EventKind::Core),
            ("machine-clears", EventKind::Core),
            ("L1-dcache-prefetches", EventKind::Cache),
            ("L1-dcache-prefetch-misses", EventKind::Cache),
            ("L1-icache-loads", EventKind::Cache),
            ("L2-loads", EventKind::Cache),
            ("L2-load-misses", EventKind::Cache),
            ("L2-stores", EventKind::Cache),
            ("L2-store-misses", EventKind::Cache),
            ("L2-prefetches", EventKind::Cache),
            ("LLC-stores", EventKind::Cache),
            ("LLC-store-misses", EventKind::Cache),
            ("LLC-prefetches", EventKind::Cache),
            ("LLC-prefetch-misses", EventKind::Cache),
            ("dTLB-loads", EventKind::Tlb),
            ("dTLB-stores", EventKind::Tlb),
            ("dTLB-store-misses", EventKind::Tlb),
            ("dTLB-prefetches", EventKind::Tlb),
            ("iTLB-loads", EventKind::Tlb),
            ("page-walks", EventKind::Tlb),
            ("page-walk-cycles", EventKind::Tlb),
            ("node-load-misses", EventKind::Memory),
            ("node-store-misses", EventKind::Memory),
            ("node-prefetches", EventKind::Memory),
            ("node-prefetch-misses", EventKind::Memory),
            ("mem-loads-latency", EventKind::Memory),
            ("mem-stores-latency", EventKind::Memory),
        ];
        for (name, kind) in extra_hardware {
            entries.push(EventDescriptor {
                name: name.to_owned(),
                kind,
                collected: None,
            });
        }
        debug_assert_eq!(
            entries.len(),
            HaswellCatalog::HARDWARE_EVENTS,
            "hardware event census drifted"
        );

        // Software events: kernel-maintained, never PMU-scheduled. They
        // round the platform out past 86 total events.
        let software: [&str; 35] = [
            "cpu-clock",
            "task-clock",
            "page-faults",
            "minor-faults",
            "major-faults",
            "context-switches",
            "cpu-migrations",
            "alignment-faults",
            "emulation-faults",
            "dummy",
            "bpf-output",
            "sched:sched_switch",
            "sched:sched_wakeup",
            "sched:sched_migrate_task",
            "syscalls:sys_enter",
            "syscalls:sys_exit",
            "irq:irq_handler_entry",
            "irq:softirq_entry",
            "kmem:kmalloc",
            "kmem:kfree",
            "kmem:mm_page_alloc",
            "kmem:mm_page_free",
            "block:block_rq_issue",
            "block:block_rq_complete",
            "net:net_dev_xmit",
            "net:netif_rx",
            "ext4:ext4_da_write_begin",
            "ext4:ext4_da_write_end",
            "writeback:writeback_dirty_page",
            "timer:timer_expire_entry",
            "timer:hrtimer_expire_entry",
            "signal:signal_generate",
            "signal:signal_deliver",
            "power:cpu_frequency",
            "power:cpu_idle",
        ];
        for name in software {
            entries.push(EventDescriptor {
                name: name.to_owned(),
                kind: EventKind::Software,
                collected: None,
            });
        }

        HaswellCatalog { entries }
    }

    /// All catalog entries, hardware first: the 16 collected events
    /// lead, in feature-column order.
    pub fn entries(&self) -> &[EventDescriptor] {
        &self.entries
    }

    /// Look an event up by `perf` name.
    pub fn find(&self, name: &str) -> Option<&EventDescriptor> {
        self.entries.iter().find(|e| e.name == name)
    }
}

impl Default for HaswellCatalog {
    fn default() -> HaswellCatalog {
        HaswellCatalog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_matches_platform() {
        let c = HaswellCatalog::new();
        let hardware = c.entries().iter().filter(|e| e.kind != EventKind::Software);
        assert_eq!(hardware.count(), 52, "52 hardware events");
        assert_eq!(HaswellCatalog::HARDWARE_EVENTS, 52);
        assert!(c.entries().len() > 86, "more than 86 events total");
        assert_eq!(HaswellCatalog::PROGRAMMABLE_COUNTERS, 8);
    }

    /// `Pmu` packs the programmed events into groups in catalog order,
    /// so the 16 collected events must lead the catalog in column order.
    #[test]
    fn collected_events_are_the_sixteen_features_in_order() {
        let c = HaswellCatalog::new();
        let collected: Vec<HpcEvent> = c.entries().iter().filter_map(|e| e.collected).collect();
        assert_eq!(collected, HpcEvent::ALL.to_vec());
        let leading: Vec<Option<HpcEvent>> = c.entries()[..HpcEvent::COUNT]
            .iter()
            .map(|e| e.collected)
            .collect();
        let in_order: Vec<Option<HpcEvent>> = HpcEvent::ALL.iter().copied().map(Some).collect();
        assert_eq!(leading, in_order, "collected events lead the catalog");
    }

    #[test]
    fn names_are_unique() {
        let c = HaswellCatalog::new();
        let mut names: Vec<&str> = c.entries().iter().map(|e| e.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn find_hits_and_misses() {
        let c = HaswellCatalog::new();
        assert!(c.find("cpu-cycles").is_some());
        assert_eq!(
            c.find("branch-misses").unwrap().collected,
            Some(HpcEvent::BranchMisses)
        );
        assert!(c.find("no-such-event").is_none());
    }
}
