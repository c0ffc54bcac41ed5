//! End-to-end CLI pipeline: `car gen` → `car stats` → `car mine` →
//! `car analyze` → `car detect`, all driven in-process through the
//! library entry point the binary wraps.

use std::path::PathBuf;

fn run(args: &[&str]) -> Result<String, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    car_cli::run(&argv, &mut out).map_err(|e| e.to_string())?;
    Ok(String::from_utf8(out).expect("utf8 output"))
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("car-e2e-{tag}-{}.txt", std::process::id()))
}

#[test]
fn full_pipeline_gen_mine_analyze() {
    let data = temp_path("pipeline");
    let data_str = data.to_string_lossy().into_owned();

    // Generate a small database with planted cycles.
    let gen_out = run(&[
        "gen",
        "--units",
        "16",
        "--tx-per-unit",
        "200",
        "--items",
        "100",
        "--cyclic",
        "3",
        "--cycle-min",
        "2",
        "--cycle-max",
        "4",
        "--boost",
        "0.9",
        "--seed",
        "5",
        "--out",
        &data_str,
        "--show-planted",
    ])
    .expect("gen must succeed");
    assert!(gen_out.contains("wrote 3200 transactions in 16 units"), "{gen_out}");
    let planted: Vec<&str> =
        gen_out.lines().filter(|l| l.starts_with("# planted")).collect();
    assert_eq!(planted.len(), 3);

    // Stats over the generated file.
    let stats_out = run(&["stats", "--input", &data_str]).expect("stats");
    assert!(stats_out.contains("units:               16"), "{stats_out}");
    assert!(stats_out.contains("transactions:        3200"), "{stats_out}");

    // Mine with both algorithms; identical rule listings.
    let base_args = [
        "mine",
        "--input",
        &data_str,
        "--min-support",
        "0.3",
        "--min-confidence",
        "0.5",
        "--l-min",
        "2",
        "--l-max",
        "4",
    ];
    let mut seq_args = base_args.to_vec();
    seq_args.extend(["--algorithm", "sequential"]);
    let mut int_args = base_args.to_vec();
    int_args.extend(["--algorithm", "interleaved"]);
    let seq_out = run(&seq_args).expect("sequential mine");
    let int_out = run(&int_args).expect("interleaved mine");
    assert_eq!(seq_out, int_out);
    assert!(
        seq_out.lines().next().expect("header").contains("cyclic association rules"),
        "{seq_out}"
    );
    // At least one planted pair should show up as a rule line.
    let num_rules: usize = seq_out
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
        .expect("rule count in header");
    assert!(num_rules > 0, "{seq_out}");

    // Analyze the first mined rule's antecedent/consequent.
    let rule_line = seq_out.lines().nth(1).expect("at least one rule");
    // Format: "{a} => {b} @ (l,o)" — extract the singleton ids if simple.
    if let Some((lhs, rest)) = rule_line.split_once(" => ") {
        let lhs_ids = lhs.trim_matches(['{', '}']).replace(' ', ",");
        let rhs = rest.split(" @ ").next().expect("rule format");
        let rhs_ids = rhs.trim_matches(['{', '}']).replace(' ', ",");
        let analyze_out = run(&[
            "analyze",
            "--input",
            &data_str,
            "--antecedent",
            &lhs_ids,
            "--consequent",
            &rhs_ids,
            "--min-support",
            "0.3",
            "--min-confidence",
            "0.5",
            "--l-min",
            "2",
            "--l-max",
            "4",
        ])
        .expect("analyze");
        assert!(analyze_out.contains("cycles:"), "{analyze_out}");
        assert!(!analyze_out.contains("none within bounds"), "{analyze_out}");
    }

    std::fs::remove_file(&data).ok();
}

#[test]
fn detect_command_standalone() {
    let out =
        run(&["detect", "--sequence", "100100100100", "--l-min", "2", "--l-max", "6"])
            .expect("detect");
    assert!(out.contains("(3,0)"), "{out}");

    let approx = run(&[
        "detect",
        "--sequence",
        "100100000100",
        "--l-min",
        "3",
        "--l-max",
        "3",
        "--max-misses",
        "1",
    ])
    .expect("approx detect");
    assert!(approx.contains("misses 1/4"), "{approx}");
}

#[test]
fn help_and_errors() {
    assert!(run(&["help"]).expect("help").contains("USAGE"));
    assert!(run(&[]).is_err());
    assert!(run(&["frobnicate"]).unwrap_err().contains("unknown command"));
    assert!(run(&["mine"]).unwrap_err().contains("--input"));
}

/// Runs the CLI on a thread and returns its usage error, failing if the
/// command does not return within 10 s: a `serve` that accepted every
/// option would boot a daemon and block.
fn usage_error(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let (done, result) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(car_cli::run(&argv, &mut Vec::new())));
    match result.recv_timeout(std::time::Duration::from_secs(10)) {
        Ok(Err(car_cli::CliError::Usage(msg))) => msg,
        Ok(other) => panic!("{args:?}: expected a usage error, got {other:?}"),
        Err(_) => panic!("{args:?} did not return: it ran instead of failing"),
    }
}

#[test]
fn unknown_options_are_usage_errors() {
    let data = temp_path("unknown-options");
    std::fs::write(&data, "0 | 1 2\n1 | 1 2\n").unwrap();
    let input = data.to_string_lossy().into_owned();
    // Misspelt options used to be ignored, leaving their defaults in force.
    let msg = usage_error(&["mine", "--input", &input, "--min-suport", "0.5"]);
    assert!(msg.contains("--min-suport"), "{msg}");
    let msg = usage_error(&["detect", "--sequence", "0101", "--l-mx", "3"]);
    assert!(msg.contains("--l-mx"), "{msg}");
    // `serve` returns the error instead of booting a daemon.
    let msg = usage_error(&["serve", "--port", "0", "--windw", "16"]);
    assert!(msg.contains("--windw"), "{msg}");
    assert!(usage_error(&["serve", "--port", "0", "--help"]).contains("--help"));
    // Every declared option still parses: the command then runs.
    let mined = run(&["mine", "--input", &input, "--min-support", "0.5", "--l-max", "2"]);
    assert!(mined.is_ok(), "{mined:?}");
    std::fs::remove_file(&data).ok();
}

#[test]
fn serve_command_boots_ingests_and_drains() {
    use std::io::Write;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    /// A `Write` the test can read while the serve command still owns it.
    #[derive(Clone)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let mut thread_buf = buf.clone();
    let server = std::thread::spawn(move || {
        let argv: Vec<String> = [
            "serve",
            "--port",
            "0",
            "--threads",
            "2",
            "--window",
            "4",
            "--queue-capacity",
            "8",
            "--min-support",
            "0.5",
            "--min-confidence",
            "0.5",
            "--l-min",
            "2",
            "--l-max",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        car_cli::run(&argv, &mut thread_buf).map_err(|e| e.to_string())
    });

    // The daemon prints its bound address once listening.
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        if let Some(line) = text.lines().find(|l| l.contains("listening on http://")) {
            break line.split("http://").nth(1).unwrap().trim().to_string();
        }
        assert!(Instant::now() < deadline, "server never reported its address");
        std::thread::sleep(Duration::from_millis(20));
    };

    let mut client = car_serve::Client::connect(&addr).expect("connect to daemon");
    let even = br#"{"transactions": [[1,2],[1,2],[1,2],[1,2]]}"#;
    let odd = br#"{"transactions": [[9],[9],[9],[9]]}"#;
    for day in 0..4 {
        let body: &[u8] = if day % 2 == 0 { even } else { odd };
        let resp =
            client.request("POST", "/v1/units?wait=true", Some(body)).expect("ingest");
        assert_eq!(resp.status, 200, "{}", resp.body_text());
    }
    let resp = client.request("GET", "/v1/rules", None).expect("rules");
    assert_eq!(resp.status, 200);
    assert!(resp.body_text().contains("{1} => {2}"), "{}", resp.body_text());

    let resp = client.request("POST", "/v1/shutdown", None).expect("shutdown");
    assert_eq!(resp.status, 200);
    server.join().unwrap().expect("serve command exits cleanly");

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    assert!(text.contains("drained and stopped"), "{text}");
    assert!(text.contains("ingested 4 units"), "{text}");
}
