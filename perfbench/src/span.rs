//! The benchmark's own spans, used only by traced runs.
//!
//! The traced pass wraps calls into each crate's public functions (it does not
//! rely on spans inside the program, which later changes may move). A span
//! records its *self* time: its duration minus the time of spans opened
//! inside it on the same thread. Self times are summed over threads, so with
//! two workers a layer can exceed the wall clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Self time per span name.
static SELF_TIMES: Mutex<BTreeMap<&'static str, Duration>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Child time accumulated by each open span on this thread, innermost last.
    static STACK: RefCell<Vec<Duration>> = const { RefCell::new(Vec::new()) };
}

pub struct Span {
    name: &'static str,
    start: Instant,
}

/// Opens a span; it closes when the guard drops.
pub fn span(name: &'static str) -> Span {
    STACK.with(|s| s.borrow_mut().push(Duration::ZERO));
    Span { name, start: Instant::now() }
}

/// Runs `f` inside a span named `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _sp = span(name);
    f()
}

impl Drop for Span {
    fn drop(&mut self) {
        let total = self.start.elapsed();
        let children = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let children = stack.pop().unwrap_or_default();
            if let Some(parent) = stack.last_mut() {
                *parent += total;
            }
            children
        });
        // Every update leaves the table valid, so a poisoned lock is safe to
        // recover, and a drop must not panic.
        let mut times = SELF_TIMES.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *times.entry(self.name).or_default() += total.saturating_sub(children);
    }
}

/// Takes every self time recorded so far and clears the table.
pub fn drain() -> BTreeMap<&'static str, Duration> {
    std::mem::take(&mut *SELF_TIMES.lock().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        drain();
        {
            let _outer = span("outer");
            std::thread::sleep(Duration::from_millis(5));
            timed("inner", || std::thread::sleep(Duration::from_millis(20)));
        }
        let times = drain();
        assert!(times["inner"] >= Duration::from_millis(20));
        assert!(times["outer"] >= Duration::from_millis(5));
        assert!(times["outer"] < Duration::from_millis(20), "{:?}", times["outer"]);
    }
}
