//! Minimal SIGTERM/SIGINT handling without any FFI crate.
//!
//! The handler only stores into an [`AtomicBool`] (async-signal-safe); the
//! gateway's main loop polls [`shutdown_requested`] and performs the
//! graceful drain on the ordinary control path.

use std::sync::atomic::{AtomicBool, Ordering};

static TERM: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM or SIGINT was delivered.
pub fn shutdown_requested() -> bool {
    TERM.load(Ordering::SeqCst)
}

extern "C" fn on_signal(_signum: i32) {
    TERM.store(true, Ordering::SeqCst);
}

// libc is linked by std on every Unix target; declaring the one symbol we
// need avoids a dependency the offline build cannot fetch.
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Installs the handler for SIGTERM (15) and SIGINT (2).
pub fn install() {
    // SAFETY: `signal` is libc's, called with valid signal numbers and a
    // handler of the C ABI type it expects (`extern "C" fn(i32)`, passed as
    // `sighandler_t`). The handler only stores to an atomic, which is
    // async-signal-safe. The previous handlers it returns are the defaults,
    // which nothing needs to restore.
    unsafe {
        signal(15, on_signal as *const () as usize);
        signal(2, on_signal as *const () as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signal_handler_trips_the_flag() {
        install();
        on_signal(15);
        assert!(shutdown_requested());
    }
}
