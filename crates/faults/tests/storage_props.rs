//! Storage-fault property tests (the `store_torture` invariant, in
//! miniature, over arbitrary seeds): a `.jpt` trace written through a
//! seeded [`IoFaultPlan::storm`] either seals or fails with a typed
//! [`StoreError`], and a faultless [`TraceReader`] over whatever file is
//! left yields **exactly the written records or a typed error** — no
//! panic, no wrong record, ever.

use std::path::{Path, PathBuf};

use jpmd_faults::{FaultyStorage, IoFaultPlan, SharedBackend};
use jpmd_store::{StoreError, TraceReader, TraceWriter};
use jpmd_trace::{AccessKind, FileId, TraceRecord};
use proptest::prelude::*;

const RECORDS: u64 = 600;
const TOTAL_PAGES: u64 = 4096;

/// Strictly increasing times, so a page duplicated by a torn write can
/// never decode as valid.
fn storm_record(seed: u64, i: u64) -> TraceRecord {
    TraceRecord {
        time: i as f64 * 0.25,
        file: FileId((i % 5) as u32),
        first_page: seed.wrapping_add(i * 31) % (TOTAL_PAGES - 4),
        pages: 1 + i % 4,
        kind: if i.is_multiple_of(3) {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    }
}

fn write_through(backend: SharedBackend, path: &Path, seed: u64) -> Result<(), StoreError> {
    let mut writer = TraceWriter::create_on(backend, path, 4096, TOTAL_PAGES)?;
    for i in 0..RECORDS {
        writer.write_record(&storm_record(seed, i))?;
    }
    writer.finish_durable()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn faulted_trace_writer_leaves_all_records_or_a_typed_error(seed in any::<u64>()) {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "jpmd-storage-props-{}-{seed:016x}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("storm.jpt");
        let storage = FaultyStorage::new(IoFaultPlan::storm(seed));
        let sealed = write_through(SharedBackend::from(storage), &path, seed).is_ok();

        let mut read = 0u64;
        let mut failed = false;
        match TraceReader::open(&path) {
            Ok(reader) => {
                for record in reader {
                    match record {
                        Ok(record) => {
                            prop_assert!(read < RECORDS, "more records than were written");
                            prop_assert_eq!(record, storm_record(seed, read), "record #{}", read);
                            read += 1;
                        }
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
            }
            Err(_) => failed = true,
        }
        prop_assert!(failed || read == RECORDS, "clean end after {} of {} records", read, RECORDS);
        prop_assert!(!sealed || !failed, "a sealed trace failed to read back");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_plan_trace_store_is_byte_identical_to_direct_fs(seed in any::<u64>()) {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "jpmd-storage-ident-{}-{seed:016x}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let rec = |i: u64| TraceRecord {
            time: i as f64,
            file: FileId(1),
            first_page: (seed.wrapping_add(i)) % 100,
            pages: 1,
            kind: if i.is_multiple_of(2) { AccessKind::Read } else { AccessKind::Write },
        };
        let direct = dir.join("direct.jpt");
        let wrapped = dir.join("wrapped.jpt");
        {
            let mut w = TraceWriter::create(&direct, 4096, 100).unwrap();
            for i in 0..200 { w.write_record(&rec(i)).unwrap(); }
            w.finish_durable().unwrap();
        }
        {
            let storage = FaultyStorage::new(IoFaultPlan { seed, ..IoFaultPlan::disabled() });
            let monitor = storage.monitor();
            let mut w = TraceWriter::create_on(SharedBackend::from(storage), &wrapped, 4096, 100).unwrap();
            for i in 0..200 { w.write_record(&rec(i)).unwrap(); }
            w.finish_durable().unwrap();
            prop_assert_eq!(monitor.injected().total(), 0);
        }
        prop_assert_eq!(std::fs::read(&direct).unwrap(), std::fs::read(&wrapped).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }
}
