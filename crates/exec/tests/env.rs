//! `QWM_THREADS` parsing contract: valid values win, malformed values
//! fall back to the hardware default *loudly* (the report itself is
//! exercised in `qwm-obs`; here we pin the resulting thread counts).
//!
//! Environment mutation is process-global, so every test holds one
//! lock and restores the variable it found.

use qwm_exec::default_threads;
use std::sync::{Mutex, MutexGuard};

/// The hardware default: the machine's available parallelism.
fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

static LOCK: Mutex<()> = Mutex::new(());

struct EnvGuard {
    prior: Option<String>,
    _held: MutexGuard<'static, ()>,
}

impl EnvGuard {
    fn set(value: Option<&str>) -> EnvGuard {
        let held = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prior = std::env::var("QWM_THREADS").ok();
        match value {
            Some(v) => std::env::set_var("QWM_THREADS", v),
            None => std::env::remove_var("QWM_THREADS"),
        }
        EnvGuard { prior, _held: held }
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match &self.prior {
            Some(v) => std::env::set_var("QWM_THREADS", v),
            None => std::env::remove_var("QWM_THREADS"),
        }
    }
}

#[test]
fn unset_uses_hardware_threads() {
    let _g = EnvGuard::set(None);
    assert_eq!(default_threads(), hardware_threads());
}

#[test]
fn valid_value_wins() {
    let _g = EnvGuard::set(Some("3"));
    assert_eq!(default_threads(), 3);
    drop(_g);
    let _g = EnvGuard::set(Some(" 8 "));
    assert_eq!(default_threads(), 8);
}

#[test]
fn malformed_values_fall_back_to_hardware_default() {
    for bad in ["0", "-2", "four", "2.5", "4x"] {
        let _g = EnvGuard::set(Some(bad));
        assert_eq!(default_threads(), hardware_threads(), "QWM_THREADS={bad}");
    }
}

#[test]
fn empty_value_is_treated_as_unset() {
    let _g = EnvGuard::set(Some(""));
    assert_eq!(default_threads(), hardware_threads());
}
