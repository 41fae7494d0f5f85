//! An in-process `rasa-serve` daemon on an ephemeral loopback port, stopped
//! and joined when dropped.

use rasa_serve::{DrainReport, ServeConfig, Server, ServerHandle, SyncPolicy, WalConfig};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

pub struct Daemon {
    pub addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<DrainReport>>,
    /// Journal directory to remove on drop, when journaling is on.
    wal_root: Option<PathBuf>,
}

/// A fresh journal directory under the benchmark's output directory.
pub fn fresh_wal_root() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    crate::sys::output_dir().join(format!("wal-{}-{n}", std::process::id()))
}

impl Daemon {
    /// Boot with two workers. `wal` turns journaling on under a fresh
    /// directory with the given sync policy.
    pub fn boot(queue_capacity: usize, wal: Option<SyncPolicy>) -> Result<Daemon, String> {
        let wal_root = wal.map(|_| fresh_wal_root());
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity,
            max_tenants: 16,
            drain_grace: Duration::from_secs(10),
            wal: wal.zip(wal_root.clone()).map(|(sync, root)| WalConfig {
                sync,
                ..WalConfig::new(root)
            }),
            ..ServeConfig::default()
        };
        let server = Server::bind(config).map_err(|e| format!("daemon bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("daemon address: {e}"))?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            handle,
            thread: Some(thread),
            wal_root,
        })
    }

    /// Drain and join, keeping the journal directory for the caller.
    pub fn stop_keeping_journal(mut self) -> Option<PathBuf> {
        self.stop();
        self.wal_root.take()
    }

    fn stop(&mut self) {
        self.handle.shutdown();
        if let Some(thread) = self.thread.take() {
            // a panicked daemon thread has already failed the requests that
            // were in flight; there is nothing further to report from here
            let _ = thread.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
        if let Some(root) = self.wal_root.take() {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}
