//! Event-loop acceptance tests: every response byte pinned to golden
//! transcripts, the bulk-classify opcode, streamed snapshot transfers,
//! and the event loop's concurrency edge cases (split frames,
//! slow-loris backlogs, drain/capacity rejections).
//!
//! The golden transcripts (`tests/golden/*.txt`) hold one line per
//! response, in script order: `J <json line>` or `B <hex frame>`. They
//! were recorded from the thread-per-connection core this crate used to
//! ship, which the epoll core matched byte for byte; that differential
//! oracle survives as these recorded bytes. Serving is Linux only.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use hdc_model::{ClassifySession, HdcModel, RecordEncoder};
use hdc_serve::demo::{self, DemoSpec};
use hdc_serve::{
    protocol, serve_registry_with_core_metrics, wire, AdmissionConfig, BatchConfig, CoreKind,
    RegistryServeConfig, ServeStats,
};
use hdc_store::{ModelRegistry, ModelSnapshot};

/// Boots `model` as a one-generation registry: how a fixed model is
/// served.
fn fixed_registry(model: &HdcModel<RecordEncoder>) -> ModelRegistry {
    ModelRegistry::from_snapshot(ModelSnapshot::from_standard_model(model), None).unwrap()
}

/// Serves `registry`, telemetry off.
fn serve_on(
    listener: TcpListener,
    registry: &ModelRegistry,
    config: &RegistryServeConfig,
    shutdown: &AtomicBool,
) -> std::io::Result<ServeStats> {
    serve_registry_with_core_metrics(CoreKind::Event, listener, registry, config, shutdown, None)
}

/// Arms the server's shutdown flag on drop, so a client-side panic
/// inside a `thread::scope` fails the test instead of deadlocking the
/// scope on a server thread that was never told to stop.
struct ShutdownGuard<'a>(&'a AtomicBool);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Reads one raw binary response frame (header + payload bytes).
fn read_raw_frame(reader: &mut impl Read) -> Vec<u8> {
    let mut frame = vec![0u8; wire::HEADER_LEN];
    reader.read_exact(&mut frame).expect("frame header");
    let len = u32::from_le_bytes(frame[12..16].try_into().unwrap()) as usize;
    frame.resize(wire::HEADER_LEN + len, 0);
    reader
        .read_exact(&mut frame[wire::HEADER_LEN..])
        .expect("frame payload");
    frame
}

/// Serial JSON round trip returning the raw response line.
fn json_roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &str,
) -> String {
    writer.write_all(request.as_bytes()).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(!line.is_empty(), "server closed instead of answering");
    line
}

fn demo_row(spec: &DemoSpec, i: usize) -> Vec<u16> {
    (0..spec.n_features)
        .map(|f| ((i + f) % spec.m_levels) as u16)
        .collect()
}

/// Drives the full differential script against one server and returns
/// every raw response byte-string in a deterministic order.
///
/// The script covers both wires and every response family: classify
/// (with and without scores), search, info, stats, malformed lines,
/// validation errors, duplicate ids, admission throttling, bulk
/// frames, unknown opcodes, version mismatches, an oversized frame
/// (connection-fatal), and a registry reload landing mid-script from a
/// dedicated admin connection.
fn drive_differential_script(addr: SocketAddr, spec: &DemoSpec, snap_path: &Path) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::new();

    // --- JSON connection, pre-swap -----------------------------------
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut json = |req: &str, out: &mut Vec<Vec<u8>>| {
        out.push(json_roundtrip(&mut reader, &mut writer, req).into_bytes());
    };
    for i in 0..4usize {
        json(
            &protocol::request_line(i as u64 + 1, &demo_row(spec, i), i % 2 == 1),
            &mut out,
        );
    }
    json(
        &protocol::search_request_line(5, &demo_row(spec, 5), 3),
        &mut out,
    );
    json(&protocol::request_line(6, &[1, 2], false), &mut out); // wrong width
    json(
        &protocol::request_line(7, &vec![9999u16; spec.n_features], true),
        &mut out,
    ); // out of range
    json(&protocol::info_request_line(8), &mut out);
    json("{oops\n", &mut out); // malformed
    json(&protocol::stats_request_line(9), &mut out);

    // --- binary connection, pre-swap ---------------------------------
    let bstream = TcpStream::connect(addr).unwrap();
    bstream.set_nodelay(true).unwrap();
    let mut breader = BufReader::new(bstream.try_clone().unwrap());
    let mut bwriter = bstream;
    let mut bin = |frame: &[u8], out: &mut Vec<Vec<u8>>| {
        bwriter.write_all(frame).unwrap();
        out.push(read_raw_frame(&mut breader));
    };
    for i in 0..4usize {
        bin(
            &wire::classify_frame(100 + i as u64, &demo_row(spec, i), i % 2 == 0),
            &mut out,
        );
    }
    bin(&wire::search_frame(104, &demo_row(spec, 2), 4), &mut out);
    bin(&wire::info_frame(105), &mut out);
    bin(&wire::classify_frame(106, &[3], false), &mut out); // wrong width
    let mut rows: Vec<Vec<u16>> = (0..5).map(|i| demo_row(spec, i)).collect();
    rows[3] = vec![9999; spec.n_features]; // one rejected row inside the bulk
    let row_refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
    bin(&wire::bulk_classify_frame(107, &row_refs, true), &mut out);
    let mut bad_op = wire::classify_frame(108, &demo_row(spec, 0), false);
    bad_op[3] = 0x7E;
    bin(&bad_op, &mut out); // unknown opcode
    let mut bad_ver = wire::classify_frame(109, &demo_row(spec, 0), false);
    bad_ver[2] = wire::WIRE_VERSION + 1;
    bin(&bad_ver, &mut out); // wrong version

    // --- reload mid-script from a dedicated admin connection ----------
    let astream = TcpStream::connect(addr).unwrap();
    let mut areader = BufReader::new(astream.try_clone().unwrap());
    let mut awriter = astream;
    out.push(
        json_roundtrip(
            &mut areader,
            &mut awriter,
            &protocol::reload_request_line(900, snap_path.to_str().unwrap(), None),
        )
        .into_bytes(),
    );

    // --- post-swap traffic on the *same* pre-swap connections ----------
    for i in 0..3usize {
        json(
            &protocol::request_line(20 + i as u64, &demo_row(spec, i), true),
            &mut out,
        );
        bin(
            &wire::classify_frame(120 + i as u64, &demo_row(spec, i), true),
            &mut out,
        );
    }
    json(&protocol::info_request_line(30), &mut out);

    // Oversized length prefix: answered, then the connection closes.
    let mut oversized = wire::classify_frame(131, &demo_row(spec, 0), false);
    oversized[12..16].copy_from_slice(&(wire::MAX_PAYLOAD as u32 + 1).to_le_bytes());
    bin(&oversized, &mut out);
    let mut probe = [0u8; 1];
    assert_eq!(breader.read(&mut probe).unwrap(), 0, "clean close");

    // --- throttling: a fresh connection burns a tiny budget ------------
    let tstream = TcpStream::connect(addr).unwrap();
    let mut treader = BufReader::new(tstream.try_clone().unwrap());
    let mut twriter = tstream;
    for i in 0..6usize {
        out.push(
            json_roundtrip(
                &mut treader,
                &mut twriter,
                &protocol::request_line(200 + i as u64, &demo_row(spec, i), false),
            )
            .into_bytes(),
        );
    }
    out
}

/// One response in the golden transcripts' format.
fn golden_line(response: &[u8]) -> String {
    if response.first() == Some(&wire::MAGIC0) {
        let hex: String = response.iter().map(|b| format!("{b:02x}")).collect();
        return format!("B {hex}");
    }
    let text = std::str::from_utf8(response).expect("JSON responses are UTF-8");
    let line = text
        .strip_suffix('\n')
        .expect("one newline-terminated line");
    assert!(!line.contains('\n'), "one response per line: {text:?}");
    format!("J {line}")
}

/// Maps a transcript line to its comparable form. Two fields vary
/// from run to run by design: the kernel backend named by `info`
/// responses and the `stats` uptime clock. `live` lines (this run's
/// responses) have both checked, against the active backend and a
/// one-minute bound; then both sides get fixed placeholders. A binary
/// `info` frame is re-rendered, because its backend name is
/// length-prefixed.
fn comparable(line: &str, live: bool) -> String {
    if let Some(hex) = line.strip_prefix("B ") {
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex frame"))
            .collect();
        let mut frames = wire::FrameBuffer::new();
        frames.extend(&bytes);
        let (header, payload) = frames.next_frame().unwrap().expect("one whole frame");
        if header.opcode != wire::OP_INFO_RESP {
            return line.to_owned();
        }
        let mut info = wire::decode_response(&header, &payload)
            .unwrap()
            .info
            .unwrap();
        if live {
            assert_eq!(info.backend, hypervec::kernel::name(), "{line}");
        }
        info.backend = "*".to_owned();
        return golden_line(&wire::info_response_frame(header.id, &info));
    }
    let json = line.strip_prefix("J ").expect("a `J` or `B` line");
    let resp = protocol::parse_response(json).expect("a JSON response");
    let (field, value) = if let Some(info) = &resp.info {
        if live {
            assert_eq!(info.backend, hypervec::kernel::name(), "{line}");
        }
        ("\"backend\":", format!("\"{}\"", info.backend))
    } else if let Some(stats) = &resp.stats {
        if live {
            assert!(stats.uptime_secs < 60, "{line}");
        }
        ("\"uptime_secs\":", stats.uptime_secs.to_string())
    } else {
        return line.to_owned();
    };
    let from = format!("{field}{value}");
    assert_eq!(line.matches(&from).count(), 1, "{line}");
    line.replace(&from, &format!("{field}\"*\""))
}

/// Compares this run's responses with `tests/golden/<name>`; on a
/// mismatch, prints the observed transcript in the file's format.
fn assert_matches_golden(name: &str, responses: &[Vec<u8>]) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let golden = std::fs::read_to_string(&path).expect("golden transcript");
    let observed: Vec<String> = responses.iter().map(|r| golden_line(r)).collect();
    let want: Vec<String> = golden.lines().map(|l| comparable(l, false)).collect();
    let got: Vec<String> = observed.iter().map(|l| comparable(l, true)).collect();
    if got != want {
        let first = got.iter().zip(&want).position(|(g, w)| g != w);
        panic!(
            "responses diverge from {} ({} observed, {} golden; first difference at \
             response {first:?}); observed transcript:\n{}",
            path.display(),
            got.len(),
            want.len(),
            observed.join("\n")
        );
    }
}

/// The serving pin: the differential script's 35 responses match the
/// golden transcript byte for byte — scores, match lists, error shapes,
/// request-id echoes, bulk outcomes, admission throttling and a
/// mid-script registry swap included, on both wire formats.
#[test]
fn responses_match_the_golden_transcript() {
    let spec = DemoSpec {
        dim: 256,
        train_size: 64,
        ..Default::default()
    };
    // A replacement snapshot the server reloads mid-script.
    let dir = std::env::temp_dir().join("hdc_serve_golden_test");
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("replacement.hdsn");
    let replacement = demo::demo_model(&DemoSpec { seed: 4242, ..spec });
    ModelSnapshot::from_standard_model(&replacement)
        .save(&snap_path)
        .unwrap();

    let config = RegistryServeConfig {
        batch: BatchConfig::default(),
        admission: AdmissionConfig {
            query_budget: 3,
            ..AdmissionConfig::default()
        },
    };

    // Fixed seeds build the registry the transcript was recorded from.
    let registry = demo::demo_locked_registry(&spec, 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    let transcript = std::thread::scope(|s| {
        let server = s.spawn(|| serve_on(listener, &registry, &config, &shutdown));
        let _guard = ShutdownGuard(&shutdown);
        let transcript = drive_differential_script(addr, &spec, &snap_path);
        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
        transcript
    });
    let _ = std::fs::remove_file(&snap_path);
    assert_eq!(transcript.len(), 35);
    assert_matches_golden("differential.txt", &transcript);
}

/// The int-metric twin of the golden pin: SEARCH against a non-binary
/// (integer class memory, cosine) model answers the recorded MATCHES
/// bytes on both wires — the blocked int planes and strided dot kernels
/// behind the int search path must not perturb a single serialized bit.
#[test]
fn int_search_responses_match_the_golden_transcript() {
    let spec = DemoSpec {
        dim: 2048,
        train_size: 64,
        ..Default::default()
    };
    let model = demo::demo_nonbinary_model(&spec);
    let session = model.session();
    let registry = fixed_registry(&model);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    let transcript = std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_on(
                listener,
                &registry,
                &RegistryServeConfig::default(),
                &shutdown,
            )
        });
        let _guard = ShutdownGuard(&shutdown);

        let mut out: Vec<Vec<u8>> = Vec::new();
        // JSON wire: SEARCH lines with varying k.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for i in 0..6usize {
            out.push(
                json_roundtrip(
                    &mut reader,
                    &mut writer,
                    &protocol::search_request_line(i as u64 + 1, &demo_row(&spec, i), 1 + i % 4),
                )
                .into_bytes(),
            );
        }
        drop(reader);
        drop(writer);

        // Binary wire: SEARCH frames over the same rows.
        let bstream = TcpStream::connect(addr).unwrap();
        bstream.set_nodelay(true).unwrap();
        let mut breader = BufReader::new(bstream.try_clone().unwrap());
        let mut bwriter = bstream;
        for i in 0..6usize {
            bwriter
                .write_all(&wire::search_frame(
                    100 + i as u64,
                    &demo_row(&spec, i),
                    1 + i % 4,
                ))
                .unwrap();
            out.push(read_raw_frame(&mut breader));
        }
        drop(breader);
        drop(bwriter);

        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
        out
    });
    assert_matches_golden("int_search.txt", &transcript);

    // Sanity: the transcript really carries MATCHES payloads with the
    // session's own exact scores, on both wires.
    let resp =
        protocol::parse_response(&String::from_utf8(transcript[2].clone()).unwrap()).unwrap();
    let hits = resp.matches.expect("JSON search answered with matches");
    assert_eq!(hits.len(), 3);
    let buf = &mut wire::FrameBuffer::new();
    buf.extend(&transcript[8]);
    let (header, payload) = buf.next_frame().unwrap().unwrap();
    let decoded = wire::decode_response(&header, &payload).unwrap();
    let bhits = decoded
        .matches
        .expect("binary search answered with matches");
    assert_eq!(bhits.len(), 3);
    let row = demo_row(&spec, 2);
    let refs: Vec<&[u16]> = vec![&row];
    let want = session.search_topk_batch(&refs, 3, None);
    for (got, exact) in bhits.iter().zip(want.matches(0)) {
        assert_eq!(got.row as usize, exact.row);
        assert_eq!(got.score.to_bits(), exact.score.to_bits());
    }
}

/// The BULK_CLASSIFY opcode answers every row bit-identical to the same
/// rows sent as N single CLASSIFY frames, through the same validation,
/// admission and batch fusion.
#[test]
fn bulk_classify_matches_single_frames_bit_identically() {
    let spec = DemoSpec {
        dim: 512,
        train_size: 128,
        ..Default::default()
    };
    let model = demo::demo_model(&spec);
    let session = model.session();
    let registry = fixed_registry(&model);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_on(
                listener,
                &registry,
                &RegistryServeConfig::default(),
                &shutdown,
            )
        });
        let _guard = ShutdownGuard(&shutdown);

        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;

        let rows: Vec<Vec<u16>> = (0..12usize).map(|i| demo_row(&spec, i)).collect();
        let row_refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();

        // N singles with scores…
        let mut singles = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            writer
                .write_all(&wire::classify_frame(i as u64 + 1, row, true))
                .unwrap();
            let frame = read_raw_frame(&mut reader);
            let buf = &mut wire::FrameBuffer::new();
            buf.extend(&frame);
            let (header, payload) = buf.next_frame().unwrap().unwrap();
            singles.push(wire::decode_response(&header, &payload).unwrap());
        }

        // …then the same rows in one bulk frame.
        writer
            .write_all(&wire::bulk_classify_frame(99, &row_refs, true))
            .unwrap();
        let frame = read_raw_frame(&mut reader);
        let buf = &mut wire::FrameBuffer::new();
        buf.extend(&frame);
        let (header, payload) = buf.next_frame().unwrap().unwrap();
        let bulk = wire::decode_response(&header, &payload).unwrap();
        assert_eq!(bulk.id, 99);
        let outcomes = bulk.bulk.expect("bulk outcomes");
        assert_eq!(outcomes.len(), rows.len());

        for (i, (single, outcome)) in singles.iter().zip(&outcomes).enumerate() {
            assert_eq!(outcome.class, single.class, "row {i}");
            assert_eq!(outcome.class, Some(session.classify(&rows[i])), "row {i}");
            let ss = single.scores.as_ref().unwrap();
            let bs = outcome.scores.as_ref().unwrap();
            assert_eq!(ss.len(), bs.len());
            for (a, b) in ss.iter().zip(bs) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {i} scores");
            }
        }

        // An invalid row rejects in place without sinking the frame.
        let bad_row = vec![9999u16; spec.n_features];
        let mut mixed = row_refs.clone();
        mixed[4] = &bad_row;
        writer
            .write_all(&wire::bulk_classify_frame(100, &mixed, false))
            .unwrap();
        let frame = read_raw_frame(&mut reader);
        let buf = &mut wire::FrameBuffer::new();
        buf.extend(&frame);
        let (header, payload) = buf.next_frame().unwrap().unwrap();
        let outcomes = wire::decode_response(&header, &payload)
            .unwrap()
            .bulk
            .unwrap();
        assert!(outcomes[4].error.as_ref().unwrap().contains("out of range"));
        for (i, outcome) in outcomes.iter().enumerate() {
            if i != 4 {
                assert_eq!(outcome.class, Some(session.classify(&rows[i])), "row {i}");
            }
        }

        drop(reader);
        drop(writer);
        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
    });
}

/// Bulk rows are metered by admission row-by-row: a budget of 5 admits
/// the first five rows of an eight-row bulk frame and throttles the
/// rest in place.
#[test]
fn bulk_rows_are_admission_metered() {
    let spec = DemoSpec {
        dim: 256,
        train_size: 64,
        ..Default::default()
    };
    let registry = demo::demo_locked_registry(&spec, 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    let config = RegistryServeConfig {
        batch: BatchConfig::default(),
        admission: AdmissionConfig {
            query_budget: 5,
            ..AdmissionConfig::default()
        },
    };

    std::thread::scope(|s| {
        let server = s.spawn(|| serve_on(listener, &registry, &config, &shutdown));
        let _guard = ShutdownGuard(&shutdown);

        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let rows: Vec<Vec<u16>> = (0..8usize).map(|i| demo_row(&spec, i)).collect();
        let row_refs: Vec<&[u16]> = rows.iter().map(Vec::as_slice).collect();
        writer
            .write_all(&wire::bulk_classify_frame(1, &row_refs, false))
            .unwrap();
        let frame = read_raw_frame(&mut reader);
        let buf = &mut wire::FrameBuffer::new();
        buf.extend(&frame);
        let (header, payload) = buf.next_frame().unwrap().unwrap();
        let outcomes = wire::decode_response(&header, &payload)
            .unwrap()
            .bulk
            .unwrap();
        assert_eq!(outcomes.len(), 8);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i < 5 {
                assert!(
                    outcome.class.is_some(),
                    "row {i} within budget: {outcome:?}"
                );
            } else {
                assert!(
                    outcome.error.as_ref().unwrap().contains("budget"),
                    "row {i} over budget: {outcome:?}"
                );
            }
        }

        drop(reader);
        drop(writer);
        shutdown.store(true, Ordering::SeqCst);
        let stats = server.join().unwrap().unwrap();
        assert_eq!(stats.throttled, 3, "three bulk rows throttled");
    });
}

/// Streamed snapshot transfer end to end: chunk a snapshot over the
/// wire, commit, and watch the generation swap — plus abort, commit
/// with nothing staged, and a corrupted stream failing its checksum.
#[test]
fn streamed_snapshot_transfer_reloads_the_registry() {
    let spec = DemoSpec {
        dim: 256,
        train_size: 64,
        ..Default::default()
    };
    let registry = demo::demo_locked_registry(&spec, 2);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);
    let config = RegistryServeConfig::default();

    let replacement = demo::demo_model(&DemoSpec { seed: 777, ..spec });
    let replacement_session = replacement.session();
    let snapshot_bytes = ModelSnapshot::from_standard_model(&replacement).to_bytes();

    std::thread::scope(|s| {
        let server = s.spawn(|| serve_on(listener, &registry, &config, &shutdown));
        let _guard = ShutdownGuard(&shutdown);

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut rt = |req: &str| {
            protocol::parse_response(&json_roundtrip(&mut reader, &mut writer, req)).unwrap()
        };

        // Commit with no transfer staged is a structured error.
        let resp = rt(&protocol::xfer_commit_line(1, None));
        assert!(resp.error.unwrap().contains("no snapshot transfer"));

        // Begin + chunks + commit swaps the generation.
        let resp = rt(&protocol::xfer_begin_line(2, snapshot_bytes.len() as u64));
        assert_eq!(resp.xfer_received, Some(0), "{resp:?}");
        let mut sent = 0u64;
        for chunk in snapshot_bytes.chunks(1000) {
            sent += chunk.len() as u64;
            let resp = rt(&protocol::xfer_chunk_line(3, chunk));
            assert_eq!(resp.xfer_received, Some(sent), "{resp:?}");
        }
        let resp = rt(&protocol::xfer_commit_line(4, None));
        let swapped = resp.swapped.expect("commit swaps");
        assert_eq!(swapped.generation, 2);

        // Served answers now come from the streamed model, bit-equal.
        let row = demo_row(&spec, 3);
        let resp = rt(&protocol::request_line(5, &row, true));
        assert_eq!(resp.class, Some(replacement_session.classify(&row)));
        let refs: Vec<&[u16]> = vec![&row];
        let want = replacement_session.scores_batch(&refs);
        for (g, w) in resp.scores.unwrap().iter().zip(want.scores(0)) {
            assert_eq!(g.to_bits(), w.to_bits());
        }

        // Abort: acknowledged with the byte count, nothing swaps.
        let resp = rt(&protocol::xfer_begin_line(6, snapshot_bytes.len() as u64));
        assert_eq!(resp.xfer_received, Some(0));
        let resp = rt(&protocol::xfer_chunk_line(7, &snapshot_bytes[..500]));
        assert_eq!(resp.xfer_received, Some(500));
        let resp = rt(&protocol::xfer_abort_line(8));
        assert_eq!(resp.xfer_received, Some(500), "{resp:?}");
        let resp = rt(&protocol::info_request_line(9));
        assert_eq!(resp.info.unwrap().generation, 2, "abort must not swap");

        // A corrupted stream fails the envelope checksum on commit.
        let mut corrupt = snapshot_bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        let resp = rt(&protocol::xfer_begin_line(10, corrupt.len() as u64));
        assert_eq!(resp.xfer_received, Some(0));
        for chunk in corrupt.chunks(4096) {
            let resp = rt(&protocol::xfer_chunk_line(11, chunk));
            assert!(resp.error.is_none(), "{resp:?}");
        }
        let resp = rt(&protocol::xfer_commit_line(12, None));
        assert!(
            resp.error.unwrap().contains("snapshot transfer invalid"),
            "corrupt stream must fail commit"
        );
        let resp = rt(&protocol::info_request_line(13));
        assert_eq!(
            resp.info.unwrap().generation,
            2,
            "failed commit must not swap"
        );

        // Garbage dies on the first chunk, not at commit.
        let resp = rt(&protocol::xfer_begin_line(14, 4096));
        assert_eq!(resp.xfer_received, Some(0));
        let resp = rt(&protocol::xfer_chunk_line(15, b"this is not a snapshot"));
        assert!(resp.error.unwrap().contains("snapshot transfer invalid"));

        drop(reader);
        drop(writer);
        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
    });
}

/// Frames (and JSON lines) split at every byte boundary across separate
/// socket writes, or written one byte per write, still parse and answer
/// correctly.
#[test]
fn frames_split_at_every_byte_boundary_still_parse() {
    let spec = DemoSpec {
        dim: 256,
        train_size: 64,
        ..Default::default()
    };
    let model = demo::demo_model(&spec);
    let session = model.session();
    let registry = fixed_registry(&model);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_on(
                listener,
                &registry,
                &RegistryServeConfig::default(),
                &shutdown,
            )
        });
        let _guard = ShutdownGuard(&shutdown);

        let row = demo_row(&spec, 1);
        let want_class = session.classify(&row);

        // Binary: one frame, split at every interior byte offset.
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let template = wire::classify_frame(0, &row, false);
        for split in 1..template.len() {
            let mut frame = wire::classify_frame(split as u64, &row, false);
            debug_assert_eq!(frame.len(), template.len());
            let rest = frame.split_off(split);
            writer.write_all(&frame).unwrap();
            writer.flush().unwrap();
            // A pause between halves forces separate readiness events.
            std::thread::sleep(Duration::from_millis(1));
            writer.write_all(&rest).unwrap();
            let resp_frame = read_raw_frame(&mut reader);
            let buf = &mut wire::FrameBuffer::new();
            buf.extend(&resp_frame);
            let (header, payload) = buf.next_frame().unwrap().unwrap();
            let resp = wire::decode_response(&header, &payload).unwrap();
            assert_eq!(resp.id, split as u64, "split at byte {split}");
            assert_eq!(resp.class, Some(want_class), "split at byte {split}");
        }
        drop(reader);
        drop(writer);

        // JSON: one line, split at every interior byte offset.
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let template = protocol::request_line(0, &row, false);
        for split in 1..template.len() {
            let line = protocol::request_line(split as u64, &row, false);
            let (head, tail) = line.as_bytes().split_at(split.min(line.len() - 1));
            writer.write_all(head).unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(1));
            writer.write_all(tail).unwrap();
            let mut resp_line = String::new();
            reader.read_line(&mut resp_line).unwrap();
            let resp = protocol::parse_response(&resp_line).unwrap();
            assert_eq!(resp.id, split as u64, "split at byte {split}");
            assert_eq!(resp.class, Some(want_class), "split at byte {split}");
        }

        // JSON: one request written one byte per write.
        let line = protocol::request_line(9_999, &row, false);
        for byte in line.as_bytes() {
            writer.write_all(std::slice::from_ref(byte)).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut resp_line = String::new();
        reader.read_line(&mut resp_line).unwrap();
        let resp = protocol::parse_response(&resp_line).unwrap();
        assert_eq!(resp.id, 9_999, "byte-per-write request");
        assert_eq!(resp.class, Some(want_class), "byte-per-write request");

        drop(reader);
        drop(writer);
        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
    });
}

/// A slow-loris client whose write backlog fills past the server's
/// high watermark stalls only itself: a sibling connection keeps
/// serving, and the loris still gets every response once it drains.
#[test]
fn slow_loris_backlog_does_not_stall_siblings() {
    let spec = DemoSpec {
        dim: 256,
        train_size: 64,
        ..Default::default()
    };
    let model = demo::demo_model(&spec);
    let session = model.session();
    let registry = fixed_registry(&model);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_on(
                listener,
                &registry,
                &RegistryServeConfig::default(),
                &shutdown,
            )
        });
        let _guard = ShutdownGuard(&shutdown);

        // The loris: a flood of malformed lines whose inline error
        // responses (~60 bytes each) overflow the 256 KiB backlog
        // watermark while the client reads nothing. The requests
        // themselves (~20 bytes each) fit comfortably in the kernel
        // socket buffers, so this write completes without the client
        // ever draining.
        const FLOOD: usize = 9000;
        let loris_stream = TcpStream::connect(addr).unwrap();
        let mut loris_reader = BufReader::new(loris_stream.try_clone().unwrap());
        let mut loris_writer = loris_stream;
        let flood: String = (0..FLOOD).map(|i| format!("{{\"id\":{i},oops\n")).collect();
        loris_writer.write_all(flood.as_bytes()).unwrap();
        loris_writer.flush().unwrap();

        // While the loris sits on its unread backlog, a sibling must
        // round-trip unhindered (this would hang if the loop stalled).
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let row = demo_row(&spec, 2);
        for i in 0..50u64 {
            let resp = protocol::parse_response(&json_roundtrip(
                &mut reader,
                &mut writer,
                &protocol::request_line(i, &row, false),
            ))
            .unwrap();
            assert_eq!(resp.class, Some(session.classify(&row)), "sibling req {i}");
        }

        // The loris drains: all FLOOD responses arrive in send order.
        let mut line = String::new();
        for i in 0..FLOOD {
            line.clear();
            loris_reader.read_line(&mut line).unwrap();
            let resp = protocol::parse_response(&line).unwrap();
            assert_eq!(resp.id, i as u64, "loris responses in send order");
            assert!(resp.error.is_some());
        }
        // And the connection still classifies — reads resumed.
        let resp = protocol::parse_response(&json_roundtrip(
            &mut loris_reader,
            &mut loris_writer,
            &protocol::request_line(99_999, &row, false),
        ))
        .unwrap();
        assert_eq!(resp.class, Some(session.classify(&row)));

        drop(loris_reader);
        drop(loris_writer);
        drop(reader);
        drop(writer);
        shutdown.store(true, Ordering::SeqCst);
        server.join().unwrap().unwrap();
    });
}

/// Structured rejections: a connect past `max_connections` and a
/// connect during drain are both answered with an `"overloaded"` error
/// line instead of a silent close, and a JSON line over the cap closes
/// with an error.
#[test]
fn event_core_rejects_capacity_drain_and_oversized_lines_cleanly() {
    let spec = DemoSpec {
        dim: 256,
        train_size: 64,
        ..Default::default()
    };
    let model = demo::demo_model(&spec);
    let session = model.session();
    let registry = fixed_registry(&model);

    // --- capacity ------------------------------------------------------
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let config = RegistryServeConfig {
            batch: BatchConfig {
                max_connections: 2,
                ..BatchConfig::default()
            },
            ..RegistryServeConfig::default()
        };
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_on(listener, &registry, &config, &shutdown));
            let _guard = ShutdownGuard(&shutdown);
            let row = demo_row(&spec, 0);

            let mut keep = Vec::new();
            for i in 0..2u64 {
                let stream = TcpStream::connect(addr).unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let resp = protocol::parse_response(&json_roundtrip(
                    &mut reader,
                    &mut writer,
                    &protocol::request_line(i, &row, false),
                ))
                .unwrap();
                assert!(resp.class.is_some());
                keep.push((reader, writer));
            }

            // The third connection is told why, then closed.
            let extra = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(extra.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let resp = protocol::parse_response(&line).unwrap();
            assert!(resp.overloaded, "{resp:?}");
            assert!(resp.error.unwrap().contains("connection capacity"));
            let mut probe = [0u8; 1];
            assert_eq!(reader.read(&mut probe).unwrap(), 0, "closed after reject");

            drop(keep);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
        });
    }

    // --- drain ---------------------------------------------------------
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        // A long batch window holds one request in flight so the drain
        // has something to wait for while we probe the accept path.
        let config = RegistryServeConfig {
            batch: BatchConfig {
                max_batch: 64,
                max_wait: Duration::from_millis(500),
                workers: 1,
                ..BatchConfig::default()
            },
            ..RegistryServeConfig::default()
        };
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_on(listener, &registry, &config, &shutdown));
            let _guard = ShutdownGuard(&shutdown);
            let row = demo_row(&spec, 0);

            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            writer
                .write_all(protocol::request_line(1, &row, false).as_bytes())
                .unwrap();
            // Let the request reach the loop, then start the drain.
            std::thread::sleep(Duration::from_millis(60));
            shutdown.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(60));

            // A connect during the drain window is rejected with a reason.
            let late = TcpStream::connect(addr).unwrap();
            let mut late_reader = BufReader::new(late.try_clone().unwrap());
            let mut line = String::new();
            late_reader.read_line(&mut line).unwrap();
            let resp = protocol::parse_response(&line).unwrap();
            assert!(resp.overloaded, "{resp:?}");
            assert!(resp.error.unwrap().contains("draining"));

            // The in-flight request still completes before the server
            // exits.
            line.clear();
            reader.read_line(&mut line).unwrap();
            let resp = protocol::parse_response(&line).unwrap();
            assert_eq!(resp.class, Some(session.classify(&row)));

            drop(reader);
            drop(writer);
            server.join().unwrap().unwrap();
        });
    }

    // --- oversized JSON line -------------------------------------------
    {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = AtomicBool::new(false);
        let config = RegistryServeConfig::default();
        std::thread::scope(|s| {
            let server = s.spawn(|| serve_on(listener, &registry, &config, &shutdown));
            let _guard = ShutdownGuard(&shutdown);

            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let blob = vec![b'x'; (1 << 20) + 2];
            writer.write_all(&blob).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let resp = protocol::parse_response(&line).unwrap();
            assert!(resp.error.unwrap().contains("exceeds"), "line cap error");
            let mut probe = [0u8; 1];
            assert_eq!(reader.read(&mut probe).unwrap(), 0, "closed after cap");

            drop(reader);
            drop(writer);
            shutdown.store(true, Ordering::SeqCst);
            server.join().unwrap().unwrap();
        });
    }
}

/// The open-loop fan-in loadgen drives hundreds of concurrent
/// pipelined connections — with churn — against the event loop with
/// zero errors, on both wires.
#[test]
fn fan_in_loadgen_sustains_concurrent_churning_connections() {
    use hdc_serve::{loadgen, FanInConfig, WireMode};

    let spec = DemoSpec {
        dim: 256,
        train_size: 64,
        ..Default::default()
    };
    let model = demo::demo_model(&spec);
    let registry = fixed_registry(&model);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|s| {
        let server = s.spawn(|| {
            serve_on(
                listener,
                &registry,
                &RegistryServeConfig::default(),
                &shutdown,
            )
        });
        let _guard = ShutdownGuard(&shutdown);

        for wire_mode in [WireMode::Binary, WireMode::Json] {
            let report = loadgen::run_fan_in(
                addr,
                spec.n_features,
                spec.m_levels,
                &FanInConfig {
                    connections: 200,
                    requests_per_connection: 20,
                    pipeline: 4,
                    wire: wire_mode,
                    seed: 33,
                    churn_every: Some(7),
                    search_k: None,
                },
            )
            .unwrap();
            assert_eq!(report.total_requests, 4000, "{wire_mode:?}");
            assert_eq!(report.errors, 0, "{wire_mode:?}");
            assert!(report.requests_per_sec > 0.0);
        }

        shutdown.store(true, Ordering::SeqCst);
        let stats = server.join().unwrap().unwrap();
        // Churn reconnects mean strictly more accepts than the fleet.
        assert!(stats.connections > 400, "churn drove extra accepts");
    });
}
