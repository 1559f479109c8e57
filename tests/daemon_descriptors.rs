//! `pandorad` releases a closed connection's socket and thread when the
//! connection ends, not when the daemon is joined: a long-running daemon
//! that kept them would run out of descriptors after about a thousand
//! connections under the common 1,024 limit, and `accept` would then fail
//! forever. The check counts this process's open descriptors, so it is
//! the only test in this file (a file is one process).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use pandora::hdbscan::daemon::{Daemon, DaemonConfig};

/// Open descriptors of this process, or `None` where `/proc` has none.
fn open_fds() -> Option<usize> {
    std::fs::read_dir("/proc/self/fd")
        .ok()
        .map(|dir| dir.count())
}

#[test]
fn closed_connections_release_their_sockets_before_join() {
    const CYCLES: usize = 200;
    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::new().workers(1)).expect("bind");
    let Some(before) = open_fds() else {
        return; // no /proc/self/fd on this platform
    };
    for i in 0..CYCLES {
        let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
        stream
            .write_all(format!("{{\"id\":{i},\"method\":\"stats\"}}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).expect("recv");
        assert!(reply.contains("uptime_ms"), "{reply}");
    }
    // Each server-side reader sees EOF a moment after its client closes.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut grown = open_fds().expect("fd count") as isize - before as isize;
    while grown >= 16 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        grown = open_fds().expect("fd count") as isize - before as isize;
    }
    assert!(
        grown < 16,
        "{CYCLES} closed connections left {grown} more descriptors open"
    );
    daemon.shutdown();
    daemon.join();
}
