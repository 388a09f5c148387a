//! CLI contract of `bench_runner --stage`: unknown stages fail fast with a
//! clear diagnostic and exit code 2, and filtered runs emit syntactically
//! valid JSON whose `stages_run` records exactly the selected subset and
//! whose rows all belong to it — checked on a quick `incremental` run.
//!
//! The binary (and so this test target) requires the `naive-reference`
//! feature; plain `cargo test` skips it.

use std::path::PathBuf;
use std::process::Command;

fn runner() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench_runner"))
}

fn tmp_out(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// A minimal JSON syntax checker — enough to prove the emitted file is
/// well-formed without pulling a parser dependency into the workspace.
fn parse_json(bytes: &[u8]) -> Result<(), String> {
    let text: Vec<char> = std::str::from_utf8(bytes).map_err(|e| e.to_string())?.chars().collect();
    let mut pos = 0usize;
    parse_value(&text, &mut pos)?;
    skip_ws(&text, &mut pos);
    if pos != text.len() {
        return Err(format!("trailing garbage at char {pos}"));
    }
    Ok(())
}

fn skip_ws(t: &[char], pos: &mut usize) {
    while *pos < t.len() && t[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(t: &[char], pos: &mut usize, c: char) -> Result<(), String> {
    if *pos < t.len() && t[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {c:?} at char {pos}"))
    }
}

fn parse_value(t: &[char], pos: &mut usize) -> Result<(), String> {
    skip_ws(t, pos);
    match t.get(*pos) {
        Some('{') => {
            *pos += 1;
            skip_ws(t, pos);
            if t.get(*pos) == Some(&'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(t, pos);
                parse_string(t, pos)?;
                skip_ws(t, pos);
                expect(t, pos, ':')?;
                parse_value(t, pos)?;
                skip_ws(t, pos);
                match t.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at char {pos}")),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            skip_ws(t, pos);
            if t.get(*pos) == Some(&']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                parse_value(t, pos)?;
                skip_ws(t, pos);
                match t.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at char {pos}")),
                }
            }
        }
        Some('"') => parse_string(t, pos),
        Some(c) if c.is_ascii_digit() || *c == '-' => {
            *pos += 1;
            while t.get(*pos).is_some_and(|c| "0123456789+-.eE".contains(*c)) {
                *pos += 1;
            }
            Ok(())
        }
        _ => {
            for lit in ["true", "false", "null"] {
                let chars: Vec<char> = lit.chars().collect();
                if t[*pos..].starts_with(&chars) {
                    *pos += chars.len();
                    return Ok(());
                }
            }
            Err(format!("unexpected value at char {pos}"))
        }
    }
}

fn parse_string(t: &[char], pos: &mut usize) -> Result<(), String> {
    expect(t, pos, '"')?;
    while let Some(&c) = t.get(*pos) {
        *pos += 1;
        match c {
            '"' => return Ok(()),
            '\\' => *pos += 1,
            _ => {}
        }
    }
    Err("unterminated string".to_string())
}

#[test]
fn unknown_stage_fails_fast_with_exit_2() {
    let output = runner().args(["--stage", "turbo"]).output().expect("spawn bench_runner");
    assert_eq!(output.status.code(), Some(2), "unknown stage must exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown stage \"turbo\""), "diagnostic names the bad stage: {stderr}");
    assert!(stderr.contains("incremental"), "diagnostic lists the valid stages: {stderr}");
    assert!(output.stdout.is_empty(), "nothing must run before the argument error");
}

#[test]
fn dangling_stage_flag_fails_fast_with_exit_2() {
    let output = runner().arg("--stage").output().expect("spawn bench_runner");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--stage needs a name"), "got: {stderr}");
}

#[test]
fn quick_incremental_stage_round_trips_to_valid_json() {
    let out = tmp_out("stage_cli_incremental.json");
    let _ = std::fs::remove_file(&out);
    let output = runner()
        .args(["--quick", "--stage", "incremental", "--out"])
        .arg(&out)
        .output()
        .expect("spawn bench_runner");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "quick incremental run failed:\n{stderr}");
    assert!(stderr.contains("edit_round_trip"), "the row table must be printed: {stderr}");

    let json = std::fs::read(&out).expect("the run must write its report");
    parse_json(&json).expect("emitted report must be valid JSON");
    let text = String::from_utf8(json).unwrap();
    assert!(
        text.contains("\"stages_run\": [\"incremental\"]"),
        "stages_run must record exactly the selected stage"
    );
    let rows: Vec<&str> =
        text.lines().filter(|l| l.trim_start().starts_with("{\"stage\"")).collect();
    assert!(!rows.is_empty(), "the run must record rows");
    for row in &rows {
        assert!(
            row.starts_with("    {\"stage\": \"incremental\","),
            "unselected stage leaked: {row}"
        );
        for field in ["\"samples_used\": ", "\"pool_threads\": ", "\"host_threads\": "] {
            assert!(row.contains(field), "row lacks {field}: {row}");
        }
    }
    for metric in ["edit_round_trip", "rebuild_round_trip", "fresh_edit", "from_empty"] {
        let tag = format!("\"metric\": \"{metric}\"");
        assert!(rows.iter().any(|r| r.contains(&tag)), "incremental rows must include {metric}");
    }
    let _ = std::fs::remove_file(&out);
}
