//! The HTTP probe of the traced `train` run: the pooled `serve_on`
//! server on a loopback port with one worker, serving the model just
//! trained on the `Small` fixture (4k items × 20 factors). One client
//! issues `GET /recommend` on a fresh connection each time (the server
//! replies `Connection: close`), closed-loop. The scan is small, so
//! transport is most of each request.
//!
//! It reports the `http.*` per-layer metrics only. HTTP throughput on a
//! shared 2-CPU guest drifted by 2× within single 30 s runs, too far for
//! any end-to-end bound, so it is not a workload of its own (README.md).
//!
//! The client, the accept loop and the worker share one CPU: spread over
//! two CPUs, where the scheduler placed each wake-up moved whole runs by
//! up to a third, while on one CPU every hand-off is a same-CPU switch.

use crate::stats::{self, median, CpuMask, ZipfIds};
use crate::{Opts, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use taxrec_cli::serve::{route, serve_on, LiveServer, ServeOptions};
use taxrec_core::live::{LiveConfig, LiveState};
use taxrec_core::TfModel;
use taxrec_dataset::PurchaseLog;

/// Every this many requests, the body is kept for the router check.
const CHECK_EVERY: usize = 64;
/// Client socket timeout: a stalled request fails instead of hanging.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A running server and the handles needed to stop it.
struct Server {
    server: Arc<LiveServer>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    fn start(server: LiveServer) -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let server = Arc::new(server);
        let stop = Arc::new(AtomicBool::new(false));
        let thread = std::thread::spawn({
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
            move || {
                serve_on(
                    listener,
                    server,
                    ServeOptions {
                        workers: 1,
                        queue_depth: 64,
                        max_conns: None,
                        stop: Some(stop),
                    },
                )
            }
        });
        Ok(Server {
            server,
            addr,
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // The accept loop checks the flag when a connection arrives.
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Client-side stamps of one request.
#[derive(Debug, Clone, Copy)]
struct Stamps {
    connect: Duration,
    ttfb: Duration,
    total: Duration,
}

/// One `GET` on a fresh connection: `(status, body, stamps)`, or an
/// error for a connect or I/O failure.
fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String, Stamps)> {
    let t0 = Instant::now();
    let mut conn = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    let connect = t0.elapsed();
    conn.set_read_timeout(Some(IO_TIMEOUT))?;
    conn.set_write_timeout(Some(IO_TIMEOUT))?;
    conn.set_nodelay(true)?;
    conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())?;
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let n = conn.read(&mut chunk)?;
    let ttfb = t0.elapsed();
    buf.extend_from_slice(&chunk[..n]);
    if n > 0 {
        conn.read_to_end(&mut buf)?;
    }
    let total = t0.elapsed();
    reset_on_close(&conn);
    let text = String::from_utf8_lossy(&buf);
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((
        status,
        body,
        Stamps {
            connect,
            ttfb,
            total,
        },
    ))
}

/// Close with a reset once the response is read (`SO_LINGER` 0). The
/// server closes first, so each request would otherwise leave a
/// `TIME_WAIT` socket behind: at thousands of connections a second the
/// kernel's `TIME_WAIT` table fills within seconds and stays full into
/// the next run, so runs would depend on the runs before them.
fn reset_on_close(conn: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        onoff: i32,
        secs: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger { onoff: 1, secs: 0 };
    // SAFETY: `fd` is a live socket and the kernel only reads `linger`.
    unsafe {
        setsockopt(
            conn.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

/// The request path for `user`.
fn path_for(user: usize) -> String {
    format!("/recommend?user={user}&top=10")
}

/// Serve `model` over HTTP for `seconds` and report the `http.*`
/// metrics, checking every response.
pub fn probe(
    opts: &Opts,
    report: &mut Report,
    model: TfModel,
    train: &PurchaseLog,
    seconds: f64,
) -> Result<(), String> {
    let all_cpus = CpuMask::current().ok_or("reading the CPU affinity mask")?;
    let pinned = all_cpus.nth_cpu(0).ok_or("empty CPU affinity mask")?;
    let users = model.num_users();
    let server = LiveServer::new(
        LiveState::new(model),
        train.clone(),
        None,
        LiveConfig::default(),
    )
    .map_err(|e| format!("starting server: {e}"))?;
    // The server's threads inherit the one-CPU mask.
    pinned.apply();
    let server = Server::start(server);
    let result = server.map(|server| {
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let zipf = ZipfIds::new(users, 1.0, &mut rng);
        // Warm-up: page in the engine and the accept path.
        for _ in 0..200 {
            let _ = get(server.addr, &path_for(zipf.draw(&mut rng)));
        }
        measure(report, &server, seconds, || zipf.draw(&mut rng));
    });
    all_cpus.apply();
    result
}

fn measure(
    report: &mut Report,
    server: &Server,
    seconds: f64,
    mut next_user: impl FnMut() -> usize,
) {
    let (mut stamps, mut users, mut kept) = (Vec::new(), Vec::new(), Vec::new());
    let mut failed = 0u64;
    let t_end = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < t_end {
        let user = next_user();
        let path = path_for(user);
        report.attempted += 1;
        match get(server.addr, &path) {
            Ok((200, body, s)) => {
                if stamps.len() % CHECK_EVERY == 0 {
                    kept.push((path, body));
                }
                stamps.push(s);
                users.push(user);
            }
            // A refused, dropped or non-200 request: failed.
            Ok(_) | Err(_) => failed += 1,
        }
    }
    report.failed += failed;
    let pick = |f: fn(&Stamps) -> Duration| -> f64 {
        median(&stats::us(&stamps.iter().map(f).collect::<Vec<_>>()))
    };
    let request_us = pick(|s| s.total);
    report.set("http.connect_us", pick(|s| s.connect));
    report.set("http.ttfb_us", pick(|s| s.ttfb));
    report.set("http.request_us", request_us);
    // The same request sequence, routed in-process: what is left of a
    // request once transport is taken away.
    let routed: Vec<Duration> = users
        .iter()
        .map(|&u| {
            let p = path_for(u);
            stats::timed(|| route(&server.server, "GET", &p, b"")).1
        })
        .collect();
    let route_us = median(&stats::us(&routed));
    report.set("http.route_us", route_us);
    report.set("http.transport_frac", 1.0 - route_us / request_us);
    let snap = server.server.http_metrics().snapshot();
    report.set("http.queue_full", snap.queue_full as f64);
    report.set("http.dropped", snap.dropped as f64);

    // Output check, untimed: sampled bodies are byte-equal to the
    // router's answer for the same path.
    let same = kept.iter().all(|(path, body)| {
        let r = route(&server.server, "GET", path, b"");
        r.status == 200 && &r.body == body
    });
    report.check(
        "http: every response is 200 and sampled bodies equal router::route",
        same && failed == 0 && !kept.is_empty(),
    );
}
