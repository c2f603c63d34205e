//! Served HDLock benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload end to end: it generates the workload's inputs from
//! the seed, starts the server host (a child process serving the model
//! through `hdc_serve`) on its own CPU, drives it from this process on
//! another CPU over one connection, checks every answer, and prints the
//! metrics. The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Any wrong answer makes the exit code non-zero.
//!
//! Each run: prepare inputs and the in-process reference model, boot the
//! server several times (set-up time), warm up, then a closed-loop
//! capacity phase, an open-loop light phase, and (isolet-locked) a
//! rekey phase under the light load. See `README.md` beside this
//! package for the workloads, the metrics and what each should move.

mod client;
mod host;
mod layers;
mod stats;
mod sys;
mod trace;
mod workload;

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use hdc_datasets::Dataset;
use hdc_model::HdcConfig;
use hdc_serve::{protocol, ClassifyResponse};
use hdc_store::{KeySegment, ModelRegistry, ModelSnapshot, RekeySource};

use client::{request_bytes, request_id, split_id, Conn};
use workload::{Answer, Kind, Spec};

/// Request-id phase tags.
const CLOSED: u64 = 1;
const LIGHT: u64 = 2;
const REKEY_LOAD: u64 = 3;
const ADMIN: u64 = 4;
const PROBE: u64 = 9;

/// Closed-loop warm-up before any timed phase; the lazy bound-pair
/// cache fills here.
const WARM_SECS: f64 = 1.0;
/// Width of the capacity phase's throughput and CPU windows.
const CAP_WINDOW_SECS: f64 = 1.0;
/// Fewest requests a light-phase percentile window holds.
const LIGHT_WINDOW_REQUESTS: f64 = 200.0;
/// Longest the rekey phase's open-loop load may last.
const REKEY_LOAD_MAX_SECS: f64 = 20.0;
/// Pause between sequential rekeys.
const REKEY_GAP_SECS: f64 = 0.2;
/// A run that has not finished by now kills its server and fails.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Where runs write model files and span files.
const OUT_DIR: &str = "perfbench/out";

static HOST_PID: AtomicU32 = AtomicU32::new(0);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("host") {
        if let Err(e) = host::main(&argv[2..]) {
            eprintln!("perfbench host: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        let pid = HOST_PID.load(Ordering::SeqCst);
        if pid != 0 {
            sys::kill(pid);
        }
        eprintln!("perfbench: run exceeded {WATCHDOG:?}");
        std::process::exit(3);
    });
    match run(&args) {
        Ok(correct) => std::process::exit(i32::from(!correct)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The workload's inputs and its in-process reference.
struct Prepared {
    rows: Vec<Vec<u16>>,
    labels: Vec<usize>,
    /// Reference answer per row, from the boot generation.
    expect: Vec<Answer>,
    /// Exact top-k rows per query (search-topk), for recall.
    exact: Vec<Vec<usize>>,
    /// The served model, built in-process from the same files.
    registry: ModelRegistry,
    snapshot_bytes: Vec<u8>,
    key_bytes: Vec<u8>,
    config: HdcConfig,
    train: Dataset,
    corpus: Vec<Vec<u16>>,
}

fn prepare(spec: &Spec, seed: u64, dir: &Path) -> Result<Prepared, String> {
    let (model, train, test) = workload::train_model(spec.kind, seed);
    let files = workload::model_files(dir, spec, seed);
    ModelSnapshot::from_locked_model(&model)
        .save(&files.0)
        .map_err(|e| e.to_string())?;
    KeySegment::from_locked_encoder(model.encoder())
        .and_then(|k| k.save(&files.1))
        .map_err(|e| e.to_string())?;
    let (rows, labels, corpus) = match spec.kind {
        Kind::JsonSmall => (workload::small_rows(seed), Vec::new(), Vec::new()),
        Kind::IsoletLocked => {
            let test = model
                .discretizer()
                .discretize(&test.expect("isolet has a test split"))
                .map_err(|e| e.to_string())?;
            let rows = (0..test.len()).map(|i| test.row(i).to_vec()).collect();
            let labels = (0..test.len()).map(|i| test.label(i)).collect();
            (rows, labels, Vec::new())
        }
        Kind::SearchTopk => {
            let (corpus, queries) = workload::search_rows(seed);
            (queries, Vec::new(), corpus)
        }
    };
    let config = workload::train_config(spec.kind, seed);
    let rekey = (spec.rekeys > 0).then(|| RekeySource {
        config,
        train: train.clone(),
    });
    let registry = workload::boot(spec.kind, &files, rekey, Some(&corpus));
    let generation = registry.current();
    let session = generation.session();
    let expect = workload::reference(session, &rows, spec.search_k, spec.probe().as_ref());
    let exact = match spec.search_k {
        Some(k) => workload::reference(session, &rows, Some(k), None)
            .into_iter()
            .map(|a| match a {
                Answer::Matches(m) => m.into_iter().map(|(row, _)| row).collect(),
                Answer::Class(_) => Vec::new(),
            })
            .collect(),
        None => Vec::new(),
    };
    Ok(Prepared {
        rows,
        labels,
        expect,
        exact,
        snapshot_bytes: std::fs::read(&files.0).map_err(|e| e.to_string())?,
        key_bytes: std::fs::read(&files.1).map_err(|e| e.to_string())?,
        registry,
        config,
        train,
        corpus,
    })
}

/// The server host child process.
struct Host {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    pid: u32,
}

/// What a telemetry-on server reported when it stopped.
#[derive(Default)]
struct ServerReport {
    metrics_json: String,
    wakeup_batch: f64,
    batch_size: f64,
}

impl Host {
    fn spawn(spec: &Spec, seed: u64, dir: &Path, cpu: usize) -> Result<Host, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .args(["host", spec.name, &seed.to_string()])
            .arg(dir)
            .arg(cpu.to_string())
            .env("HYPERVEC_THREADS", "1")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| e.to_string())?;
        let pid = child.id();
        HOST_PID.store(pid, Ordering::SeqCst);
        let mut host = Host {
            stdin: child.stdin.take().expect("piped stdin"),
            stdout: BufReader::new(child.stdout.take().expect("piped stdout")),
            child,
            pid,
        };
        host.expect_line("ready")?;
        Ok(host)
    }

    fn send(&mut self, cmd: &str) -> Result<(), String> {
        writeln!(self.stdin, "{cmd}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("server host: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) | Err(_) => Err("server host exited".into()),
            Ok(_) => Ok(line.trim_end().to_owned()),
        }
    }

    fn expect_line(&mut self, prefix: &str) -> Result<String, String> {
        let line = self.line()?;
        line.strip_prefix(prefix)
            .map(|rest| rest.trim().to_owned())
            .ok_or(format!("server host said `{line}`, expected `{prefix}`"))
    }

    /// Starts serving, after `boot` when asked, and returns the address.
    fn serve(&mut self, boot: Option<&str>, traced: bool) -> Result<SocketAddr, String> {
        if let Some(boot) = boot {
            self.send(boot)?;
        }
        self.send(if traced { "serve 1" } else { "serve 0" })?;
        let port: u16 = self
            .expect_line("port")?
            .parse()
            .map_err(|_| "bad port line")?;
        Ok(SocketAddr::from(([127, 0, 0, 1], port)))
    }

    fn stop(&mut self, traced: bool) -> Result<ServerReport, String> {
        self.send("stop")?;
        self.expect_line("stopped")?;
        let mut report = ServerReport::default();
        if traced {
            report.metrics_json = self.expect_line("metrics")?;
            let means = self.expect_line("means")?;
            for kv in means.split_whitespace() {
                let (k, v) = kv.split_once('=').unwrap_or((kv, "0"));
                let v: f64 = v.parse().unwrap_or(0.0);
                match k {
                    "wakeup_batch" => report.wakeup_batch = v,
                    "batch_size" => report.batch_size = v,
                    _ => {}
                }
            }
        }
        Ok(report)
    }
}

impl Drop for Host {
    fn drop(&mut self) {
        let _ = writeln!(self.stdin, "quit");
        let _ = self.stdin.flush();
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                HOST_PID.store(0, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        HOST_PID.store(0, Ordering::SeqCst);
    }
}

/// The p50 of one stage in a `{"metrics":true}` summary line.
fn stage_p50(json: &str, stage: &str) -> f64 {
    let key = format!("\"{stage}\":{{");
    json.find(&key)
        .and_then(|at| {
            let rest = &json[at..];
            let p50 = rest.find("\"p50\":")? + 6;
            let end = rest[p50..].find([',', '}'])?;
            rest[p50..p50 + end].parse().ok()
        })
        .unwrap_or(0.0)
}

/// The vault read count in a `{"metrics":true}` summary line.
fn vault_reads(json: &str) -> f64 {
    json.find("\"vault\":{\"reads\":")
        .and_then(|at| {
            let rest = &json[at + 17..];
            rest[..rest.find([',', '}'])?].parse().ok()
        })
        .unwrap_or(0.0)
}

/// Answer checks and their tallies.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    errors: usize,
    wrong: usize,
    missing: usize,
    label_hits: usize,
    label_n: usize,
    recall_sum: f64,
    recall_n: usize,
}

fn served_answer(resp: &ClassifyResponse) -> Option<Answer> {
    match (&resp.class, &resp.matches) {
        (Some(c), None) => Some(Answer::Class(*c)),
        (None, Some(m)) => Some(Answer::Matches(
            m.iter()
                .map(|m| (m.row as usize, m.score.to_bits()))
                .collect(),
        )),
        _ => None,
    }
}

impl Tally {
    /// Checks one response against the answers of the generations that
    /// were live while it was in flight; returns whether it passed.
    /// `quality` adds it to accuracy or recall.
    fn check(
        &mut self,
        prep: &Prepared,
        decoded: Result<ClassifyResponse, String>,
        row: usize,
        allowed: &[&Answer],
        quality: bool,
    ) -> bool {
        let answer = match decoded {
            Ok(resp) if resp.error.is_none() => served_answer(&resp),
            _ => None,
        };
        let Some(answer) = answer else {
            self.errors += 1;
            self.failed += 1;
            return false;
        };
        if !allowed.contains(&&answer) {
            self.wrong += 1;
            self.failed += 1;
            return false;
        }
        if quality {
            match &answer {
                Answer::Class(c) if !prep.labels.is_empty() => {
                    self.label_n += 1;
                    self.label_hits += usize::from(*c == prep.labels[row]);
                }
                Answer::Matches(m) if !prep.exact.is_empty() => {
                    let exact = &prep.exact[row];
                    let hit = m.iter().filter(|(r, _)| exact.contains(r)).count();
                    self.recall_sum += hit as f64 / exact.len().max(1) as f64;
                    self.recall_n += 1;
                }
                _ => {}
            }
        }
        true
    }

    /// Checks a closed-loop phase: every request sent has one answer,
    /// equal to the reference.
    fn closed(&mut self, prep: &Prepared, conn: &Conn, phase: &client::Closed) {
        self.attempted += phase.sent;
        let got = &conn.got[phase.first..];
        let missing = phase.sent.saturating_sub(got.len());
        self.missing += missing;
        self.failed += missing;
        for r in got {
            let row = split_id(r.id).1 % prep.rows.len();
            self.check(prep, conn.decode(r), row, &[&prep.expect[row]], true);
        }
    }

    /// Checks an open-loop phase and returns each request's arrival
    /// time, `None` when it failed or never came. `live(sent, arrived)`
    /// names the generations (indices into `gens`) whose answer is
    /// acceptable for a request in flight over that interval.
    fn open(
        &mut self,
        prep: &Prepared,
        conn: &Conn,
        phase: &client::Open,
        tag: u64,
        live: &dyn Fn(f64, f64) -> Vec<usize>,
        gens: &[Vec<Answer>],
    ) -> Vec<Option<f64>> {
        let n = phase.scheduled.len();
        self.attempted += n;
        let mut arrived = vec![None; n];
        let got = &conn.got[phase.first..];
        for r in got {
            let (t, i) = split_id(r.id);
            if t != tag || i >= n || arrived[i].is_some() {
                self.errors += 1;
                self.failed += 1;
                continue;
            }
            let row = i % prep.rows.len();
            let allowed: Vec<&Answer> = live(phase.sent[i], r.t)
                .into_iter()
                .map(|g| &gens[g][row])
                .collect();
            if self.check(prep, conn.decode(r), row, &allowed, tag == LIGHT) {
                arrived[i] = Some(r.t);
            }
        }
        let missing = n.saturating_sub(got.len());
        self.missing += missing;
        self.failed += missing;
        arrived
    }
}

struct CapacityResult {
    rps: f64,
    cpu_per_req: f64,
    util: f64,
}

struct LightResult {
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    max_late_ms: f64,
    p90_late_ms: f64,
    cpu_per_req: f64,
    ctx_per_req: f64,
}

/// One run in progress.
struct Run {
    spec: Spec,
    seed: u64,
    prep: Prepared,
    host: Host,
    addr: SocketAddr,
    conn: Conn,
    tally: Tally,
    ring: Vec<Vec<u8>>,
    light_frames: Vec<Vec<u8>>,
}

fn frames(spec: &Spec, prep: &Prepared, tag: u64, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let row = &prep.rows[i % prep.rows.len()];
            request_bytes(spec.json, request_id(tag, i), row, spec.search_k)
        })
        .collect()
}

fn rekey_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k as u64 + 1)
}

impl Run {
    /// Starts a fresh server session (telemetry on or off) and connects.
    fn reserve(&mut self, traced: bool) -> Result<(), String> {
        self.addr = self.host.serve(None, traced)?;
        self.conn = Conn::connect(self.addr, self.spec.json).map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Closed-loop capacity: throughput and server CPU per request, each
    /// the median over the phase's windows.
    fn capacity(&mut self, secs: f64) -> Result<CapacityResult, String> {
        let pid = self.host.pid;
        let width = CAP_WINDOW_SECS.min(secs);
        let cap = client::closed_loop(
            &mut self.conn,
            &self.ring,
            self.spec.cap_window,
            secs,
            width,
            &mut || sys::cpu_us(pid),
        )
        .map_err(|e| format!("capacity phase: {e}"))?;
        self.tally.closed(&self.prep, &self.conn, &cap);
        let rates = stats::window_rates(&cap.completions, width, secs);
        let counts = stats::window_counts(&cap.completions, width, secs);
        let cpu: Vec<f64> = cap
            .samples
            .windows(2)
            .zip(&counts)
            .map(|(c, &n)| (c[1] - c[0]) / n.max(1) as f64)
            .collect();
        let busy = cap.samples.last().unwrap_or(&0.0) - cap.samples[0];
        let span = width * (cap.samples.len() - 1).max(1) as f64;
        println!(
            "capacity windows ({width} s): req/s {:?} cpu us/req {:?}",
            rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
            cpu.iter()
                .map(|c| (c * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        );
        Ok(CapacityResult {
            rps: stats::median(&rates).unwrap_or(0.0),
            cpu_per_req: stats::median(&cpu).unwrap_or(0.0),
            util: busy / (span * 1e6),
        })
    }

    fn light(&mut self) -> Result<LightResult, String> {
        let pid = self.host.pid;
        let (c0, x0) = (sys::cpu_us(pid), sys::ctx_switches(pid));
        let phase = client::open_loop(
            &mut self.conn,
            &self.light_frames,
            self.spec.light_rate,
            None,
        )
        .map_err(|e| format!("light phase: {e}"))?;
        let (c1, x1) = (sys::cpu_us(pid), sys::ctx_switches(pid));
        let gens = std::slice::from_ref(&self.prep.expect);
        let arrived = self
            .tally
            .open(&self.prep, &self.conn, &phase, LIGHT, &|_, _| vec![0], gens);
        let lat = stats::scheduled_latencies(&phase.scheduled, &arrived);
        let span = phase.scheduled.len() as f64 / self.spec.light_rate;
        let width = (LIGHT_WINDOW_REQUESTS / self.spec.light_rate)
            .max(1.0)
            .min(span);
        let pct = |p| {
            stats::windowed_percentile(&phase.scheduled, &lat, width, span, p)
                .unwrap_or(f64::INFINITY)
                * 1e3
        };
        let n = phase.scheduled.len().max(1) as f64;
        let late = stats::lateness(&phase.scheduled, &phase.sent);
        let late_pct = |p| stats::percentile(&late, p).unwrap_or(0.0) * 1e3;
        Ok(LightResult {
            p50_ms: pct(50.0),
            p90_ms: pct(90.0),
            p99_ms: stats::percentile(&lat, 99.0).unwrap_or(f64::INFINITY) * 1e3,
            max_late_ms: late_pct(100.0),
            p90_late_ms: late_pct(90.0),
            cpu_per_req: (c1 - c0) / n,
            ctx_per_req: x1.saturating_sub(x0) as f64 / n,
        })
    }

    /// Sequential rekeys on an admin connection while the light load
    /// runs; returns the round trip of each.
    fn rekeys(&mut self) -> Result<Vec<f64>, String> {
        let seeds: Vec<u64> = (0..self.spec.rekeys)
            .map(|k| rekey_seed(self.seed, k))
            .collect();
        let admin_conn = Conn::connect(self.addr, true).map_err(|e| e.to_string())?;
        let requests = seeds
            .iter()
            .enumerate()
            .map(|(k, s)| protocol::rekey_request_line(request_id(ADMIN, k), *s).into_bytes())
            .collect();
        let mut admin = client::AdminSeq::new(admin_conn, requests, REKEY_GAP_SECS);
        let n = ((REKEY_LOAD_MAX_SECS * self.spec.light_rate) as usize).max(1);
        let load = frames(&self.spec, &self.prep, REKEY_LOAD, n);
        let phase = client::open_loop(
            &mut self.conn,
            &load,
            self.spec.light_rate,
            Some(&mut admin),
        )
        .map_err(|e| format!("rekey phase: {e}"))?;

        self.tally.attempted += seeds.len();
        for r in &admin.conn.got {
            if !admin
                .conn
                .decode(r)
                .is_ok_and(|resp| resp.swapped.is_some())
            {
                self.tally.errors += 1;
                self.tally.failed += 1;
            }
        }
        let missing = seeds.len().saturating_sub(admin.conn.got.len());
        self.tally.missing += missing;
        self.tally.failed += missing;

        // Reference answers of every generation the server went through.
        let mut gens = vec![self.prep.expect.clone()];
        for s in &seeds {
            let generation = self.prep.registry.rekey(*s).map_err(|e| e.to_string())?;
            gens.push(workload::reference(
                generation.session(),
                &self.prep.rows,
                self.spec.search_k,
                self.spec.probe().as_ref(),
            ));
        }
        let times = admin.times.clone();
        let live = |sent: f64, arrived: f64| -> Vec<usize> {
            (0..gens.len())
                .filter(|&g| {
                    let from = if g == 0 {
                        f64::NEG_INFINITY
                    } else {
                        times.get(g - 1).map_or(f64::INFINITY, |t| t.0)
                    };
                    let to = times.get(g).map_or(f64::INFINITY, |t| t.1);
                    from <= arrived && to >= sent
                })
                .collect()
        };
        self.tally
            .open(&self.prep, &self.conn, &phase, REKEY_LOAD, &live, &gens);
        Ok(times.iter().map(|(s, r)| r - s).collect())
    }
}

/// Metric triples in print order.
type Metrics = Vec<(String, f64, &'static str)>;

fn run(args: &Args) -> Result<bool, String> {
    let kind = Kind::parse(&args.workload).ok_or(format!(
        "unknown workload `{}` (json-small, isolet-locked, search-topk)",
        args.workload
    ))?;
    let spec = kind.spec();
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let cpus = sys::allowed_cpus();
    let (gen_cpu, srv_cpu) = match cpus.as_slice() {
        [a, b, ..] => (*a, *b),
        [a] => (*a, *a),
        [] => (0, 0),
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // The host-speed probe runs in this process on each CPU in turn, so
    // the server's memory figures never include it.
    let probe_on = |cpu| {
        sys::pin_to(&[cpu]);
        sys::speed_probe()
    };
    let probe_before = [probe_on(gen_cpu), probe_on(srv_cpu)];
    sys::pin_to(&cpus);

    let t = Instant::now();
    let prep = prepare(&spec, args.seed, &dir)?;
    println!(
        "prepare {}: {} request rows in {:.2} s",
        spec.name,
        prep.rows.len(),
        t.elapsed().as_secs_f64()
    );

    // From here on the generator keeps to its CPU and the server to its
    // own, each single-threaded in the kernels.
    sys::pin_to(&[gen_cpu]);
    std::env::set_var("HYPERVEC_THREADS", "1");
    let mut host = Host::spawn(&spec, args.seed, &dir, srv_cpu)?;
    let mut tally = Tally::default();
    let probe = request_bytes(
        spec.json,
        request_id(PROBE, 0),
        &prep.rows[0],
        spec.search_k,
    );

    // Set-up: from `boot` to the first correct answer, several times.
    let mut setups = Vec::new();
    let mut session = None;
    for boot in 0..spec.boots {
        let last = boot + 1 == spec.boots;
        // Only the serving boot needs the retraining source.
        let command = if last && spec.rekeys > 0 {
            "boot rekey"
        } else {
            "boot"
        };
        let t = Instant::now();
        let addr = host.serve(Some(command), false)?;
        let mut conn = Conn::connect(addr, spec.json).map_err(|e| e.to_string())?;
        let resp = conn.roundtrip(&probe, Duration::from_secs(60));
        setups.push(t.elapsed().as_secs_f64());
        tally.attempted += 1;
        if !tally.check(&prep, resp, 0, &[&prep.expect[0]], false) {
            return Err("wrong first answer after boot".into());
        }
        if last {
            session = Some((addr, conn));
        } else {
            drop(conn);
            host.stop(false)?;
        }
    }
    let (addr, conn) = session.expect("at least one boot");
    let light_n = ((0.6 * args.seconds * spec.light_rate) as usize).max(1);
    let mut run = Run {
        ring: frames(&spec, &prep, CLOSED, 4096.max(8 * spec.cap_window)),
        light_frames: frames(&spec, &prep, LIGHT, light_n),
        spec,
        seed: args.seed,
        prep,
        host,
        addr,
        conn,
        tally,
    };
    let warm = client::closed_loop(
        &mut run.conn,
        &run.ring,
        spec.cap_window,
        WARM_SECS,
        WARM_SECS,
        &mut || 0.0,
    )
    .map_err(|e| format!("warm-up: {e}"))?;
    run.tally.closed(&run.prep, &run.conn, &warm);

    let cap_secs = 0.4 * args.seconds;
    let mut report: Metrics = Vec::new();
    let mut extra: Metrics = Vec::new();
    let (util, light);
    if args.trace {
        (report, util, light) = traced(&mut run, cap_secs, &mut extra)?;
    } else {
        let cap = run.capacity(cap_secs)?;
        light = run.light()?;
        let rekey_s = if spec.rekeys > 0 {
            stats::median(&run.rekeys()?)
        } else {
            None
        };
        let rss = sys::peak_rss_mb(run.host.pid).unwrap_or(0.0);
        run.host.stop(false)?;
        report.extend([
            (
                "setup_s".to_owned(),
                stats::median(&setups).unwrap_or(0.0),
                "s",
            ),
            ("throughput_rps".to_owned(), cap.rps, "req/s"),
            ("cpu_us_per_req".to_owned(), cap.cpu_per_req, "us"),
            ("p50_ms".to_owned(), light.p50_ms, "ms"),
            ("rss_mb".to_owned(), rss, "MiB"),
        ]);
        extra.push(("p90_ms".into(), light.p90_ms, "ms"));
        if let Some(r) = rekey_s {
            extra.push(("rekey_s".into(), r, "s"));
        }
        extra.push((
            "server.cpu_us_per_req.light".into(),
            light.cpu_per_req,
            "us",
        ));
        util = cap.util;
    }
    let t = &run.tally;
    if t.label_n > 0 {
        extra.push((
            "accuracy".into(),
            t.label_hits as f64 / t.label_n as f64,
            "fraction",
        ));
    }
    if t.recall_n > 0 {
        extra.push((
            "recall_at_10".into(),
            t.recall_sum / t.recall_n as f64,
            "fraction",
        ));
    }
    extra.push((
        "failed_frac".into(),
        t.failed as f64 / t.attempted.max(1) as f64,
        "fraction",
    ));
    extra.push(("client.max_late_ms".into(), light.max_late_ms, "ms"));
    extra.push(("client.p90_late_ms".into(), light.p90_late_ms, "ms"));
    extra.push(("server.util".into(), util, "fraction"));
    drop(run.host);

    let probe_after = [probe_on(srv_cpu), probe_on(gen_cpu)];
    println!(
        "fingerprint nproc={nproc} cpu=\"{}\" kernel={} git={} cpus={:?} generator_cpu={gen_cpu} server_cpu={srv_cpu}",
        sys::cpu_model(),
        hypervec::kernel::name(),
        sys::git_sha(),
        cpus,
    );
    let probes = [
        ("generator", (probe_before[0], probe_after[1])),
        ("server", (probe_before[1], probe_after[0])),
    ];
    for (who, (before, after)) in probes {
        println!(
            "host probe on the {who} CPU: alu {:.1} -> {:.1} ms, 32 MiB stream {:.1} -> {:.1} ms",
            before.0, after.0, before.1, after.1
        );
    }
    let mut flags = Vec::new();
    if gen_cpu == srv_cpu {
        flags.push("generator and server share a CPU");
    }
    if util < 0.85 {
        flags.push("capacity phase left the server idle (generator- or round-trip-bound)");
    }
    if light.p90_late_ms > 0.25 * light.p90_ms {
        flags.push("a tenth of the light requests went out late by a quarter of p90 or more");
    }
    let drift = |a: f64, b: f64| (b - a).abs() / a.max(1e-9);
    if probes
        .iter()
        .any(|(_, (b, a))| drift(b.0, a.0) > 0.25 || drift(b.1, a.1) > 0.25)
    {
        flags.push("host speed drifted more than 25% during the run");
    }
    println!(
        "validity: {}",
        if flags.is_empty() {
            "ok".to_owned()
        } else {
            format!("FLAGGED: {}", flags.join("; "))
        }
    );
    println!(
        "answers: attempted {} failed {} (errors {} wrong {} missing {})",
        t.attempted, t.failed, t.errors, t.wrong, t.missing
    );
    for (name, value, unit) in report.iter().chain(&extra) {
        println!("metric {name} = {value} {unit}");
    }
    let correct = t.failed == 0;
    let metrics: Vec<String> = report
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { f64::MAX };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
    Ok(correct)
}

/// The traced run: telemetry-on server sessions per phase, an
/// interleaved telemetry off/on capacity comparison, and the in-process
/// replay. Returns the per-layer metrics, the server's busy share and
/// the light phase's result (both for the validity checks).
fn traced(
    run: &mut Run,
    cap_secs: f64,
    extra: &mut Metrics,
) -> Result<(Metrics, f64, LightResult), String> {
    run.host.stop(false)?;
    let (mut off, mut on, mut batch_cap, mut utils) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut vault_before = 0.0;
    for telemetry in [false, true, false, true] {
        run.reserve(telemetry)?;
        let cap = run.capacity(cap_secs / 4.0)?;
        let rep = run.host.stop(telemetry)?;
        utils.push(cap.util);
        if telemetry {
            on.push(cap.cpu_per_req);
            batch_cap.push(rep.batch_size);
            vault_before = vault_reads(&rep.metrics_json);
        } else {
            off.push(cap.cpu_per_req);
        }
    }
    run.reserve(true)?;
    let light = run.light()?;
    let rep = run.host.stop(true)?;
    let n_light = run.light_frames.len() as f64;
    let execute = if run.spec.search_k.is_some() {
        "execute_search"
    } else {
        "execute_classify"
    };
    let (dispatch, queue_wait, exec, drain) = (
        stage_p50(&rep.metrics_json, "dispatch"),
        stage_p50(&rep.metrics_json, "queue_wait"),
        stage_p50(&rep.metrics_json, execute),
        stage_p50(&rep.metrics_json, "drain"),
    );
    let median = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    let mut metrics: Metrics = vec![
        ("server.dispatch_us.p50".into(), dispatch, "us"),
        ("event_loop.drain_us.p50".into(), drain, "us"),
        (
            "event_loop.wakeup_batch.mean".into(),
            rep.wakeup_batch,
            "count",
        ),
        (
            "server.ctx_switches_per_req".into(),
            light.ctx_per_req,
            "count",
        ),
        (
            "server.cpu_us_per_req.light".into(),
            light.cpu_per_req,
            "us",
        ),
        ("batcher.queue_wait_us.p50".into(), queue_wait, "us"),
        (
            "batcher.batch_size.mean.capacity".into(),
            median(&batch_cap),
            "count",
        ),
        (
            "batcher.batch_size.mean.light".into(),
            rep.batch_size,
            "count",
        ),
        ("batcher.execute_us.p50".into(), exec, "us"),
        (
            "core.vault_reads_per_req".into(),
            (vault_reads(&rep.metrics_json) - vault_before) / n_light,
            "count",
        ),
        (
            "residual_us.p50".into(),
            light.p50_ms * 1e3 - (dispatch + queue_wait + exec + drain),
            "us",
        ),
        (
            "obs.overhead_frac".into(),
            median(&on) / median(&off) - 1.0,
            "fraction",
        ),
    ];
    extra.push(("client.p50_ms.traced".into(), light.p50_ms, "ms"));
    extra.push(("client.p99_ms.diagnostic".into(), light.p99_ms, "ms"));

    let generation = run.prep.registry.current();
    let ingest_rows = if run.prep.corpus.is_empty() {
        &run.prep.rows
    } else {
        &run.prep.corpus
    };
    let inputs = layers::Inputs {
        spec: &run.spec,
        session: generation.session(),
        rows: &run.prep.rows,
        ingest_rows,
        snapshot_bytes: &run.prep.snapshot_bytes,
        key_bytes: &run.prep.key_bytes,
        config: run.prep.config,
        train: &run.prep.train,
    };
    let mut spans = trace::Trace::new();
    let replayed = layers::replay(&inputs, &mut spans);
    let path = Path::new(OUT_DIR).join(format!("spans-{}-{}.jsonl", run.spec.name, run.seed));
    spans.write_jsonl(&path).map_err(|e| e.to_string())?;
    println!("spans written to {}", path.display());
    for m in replayed {
        if m.0 == "replay.request_self_us" {
            extra.push(m);
        } else {
            metrics.push(m);
        }
    }
    Ok((metrics, median(&utils), light))
}
