//! JSON round-trip tests for the public data types (the CLI's program
//! exchange format).

use kernel_fusion::prelude::*;
use kfuse_core::metadata::ProgramInfo;
use kfuse_workloads::{motivating, scale_les, SuiteParams, TestSuite};

#[test]
fn program_roundtrips_through_json() {
    let p = scale_les::rk_core([96, 32, 4]);
    let json = serde_json::to_string(&p).unwrap();
    let back: Program = serde_json::from_str(&json).unwrap();
    assert_eq!(p, back);
    assert!(back.validate().is_ok());
}

#[test]
fn fused_program_roundtrips_with_staging_and_syncs() {
    let (p, _) = motivating::program([96, 32, 4]);
    let gpu = GpuSpec::k20x();
    let model = ProposedModel::default();
    let r = pipeline::run(
        &p,
        &gpu,
        FpPrecision::Double,
        &model,
        &HggaSolver::with_seed(3),
    )
    .unwrap();
    let json = serde_json::to_string(&r.fused).unwrap();
    let back: Program = serde_json::from_str(&json).unwrap();
    assert_eq!(r.fused, back);
}

#[test]
fn plan_roundtrips() {
    let plan = FusionPlan::new(vec![vec![KernelId(0), KernelId(2)], vec![KernelId(1)]]);
    let json = serde_json::to_string(&plan).unwrap();
    let back: FusionPlan = serde_json::from_str(&json).unwrap();
    assert_eq!(plan, back);
}

#[test]
fn program_info_serializes() {
    let p = TestSuite::generate_on_grid(
        &SuiteParams {
            kernels: 10,
            arrays: 20,
            ..SuiteParams::default()
        },
        [96, 32, 4],
        (32, 4),
    );
    let info = ProgramInfo::extract(&p, &GpuSpec::k20x(), FpPrecision::Double);
    let json = serde_json::to_string(&info).unwrap();
    let back: ProgramInfo = serde_json::from_str(&json).unwrap();
    assert_eq!(info.kernels.len(), back.kernels.len());
    assert_eq!(info.epochs, back.epochs);
}

#[test]
fn legacy_program_json_without_host_syncs_loads() {
    // host_syncs carries #[serde(default)]: programs serialized before the
    // field existed must still parse.
    let p = scale_les::rk_core([96, 32, 4]);
    let mut v: serde_json::Value = serde_json::to_value(&p).unwrap();
    v.as_object_mut().unwrap().remove("host_syncs");
    let back: Program = serde_json::from_value(v).unwrap();
    assert!(back.host_syncs.is_empty());
    assert!(back.validate().is_ok());
}

#[test]
fn gpu_spec_roundtrips() {
    for gpu in [GpuSpec::k20x(), GpuSpec::k40(), GpuSpec::gtx750ti()] {
        let json = serde_json::to_string(&gpu).unwrap();
        let back: GpuSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(gpu, back);
    }
}

/// Parse one JSON string literal.
fn decode(text: &str) -> serde_json::Result<String> {
    serde_json::from_str(text)
}

#[test]
fn strings_roundtrip_utf8_escapes_and_control_bytes() {
    let samples = [
        "",
        "plain ascii",
        "2-byte é ü ß, 3-byte 中文 €, 4-byte 😀 🦀",
        "escapes \" \\ / \n \t \r \u{8} \u{c} side by side",
        "control bytes \u{0}\u{1}\u{1f}\u{7f} between text",
        "é\"中\\😀\n€",
        "\u{10ffff}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}",
    ];
    for s in samples {
        let text = serde_json::to_string(&s).unwrap();
        assert_eq!(decode(&text).unwrap(), s, "via {text}");
    }
    // Every escape form the reader accepts, written by hand.
    assert_eq!(
        decode(r#""a\"b\\c\/d\ne\tf\rg\bh\fi""#).unwrap(),
        "a\"b\\c/d\ne\tf\rg\u{8}h\u{c}i"
    );
    // `\u` escapes directly next to multi-byte characters.
    assert_eq!(
        decode(r#""\u4e2d\u00e9😀中\u0041é\u20ac""#).unwrap(),
        "中é😀中Aé€"
    );
    assert_eq!(decode(r#""é\u00e9""#).unwrap(), "éé");
    // Raw control bytes inside a literal are kept as they are.
    assert_eq!(decode("\"a\u{1}b\tc\"").unwrap(), "a\u{1}b\tc");
}

#[test]
fn broken_strings_are_errors() {
    for text in [r#""abc"#, r#""中文"#, "\""] {
        let e = decode(text).unwrap_err().to_string();
        assert!(e.contains("unterminated string"), "{text}: {e}");
    }
    for text in [r#""\u"#, r#""\u12"#, r#""ab\u00e"#] {
        let e = decode(text).unwrap_err().to_string();
        assert!(e.contains("truncated \\u escape"), "{text}: {e}");
    }
    assert!(decode(r#""abc\"#).is_err());
    assert!(decode(r#""\uzzzz""#).is_err());
    assert!(decode(r#""\q""#).is_err());
    assert!(decode(r#""\ud800""#).is_err());
}

#[test]
fn long_string_literal_decodes_in_linear_time() {
    // 4 MB of mixed ASCII, multi-byte text and escapes in one literal.
    let unit = "kernel_fusion é中😀 \\n \\\" \\u00e9 ";
    let reps = 4 * 1024 * 1024 / unit.len();
    let text = format!("\"{}\"", unit.repeat(reps));
    assert!(text.len() >= 4_000_000);
    let t0 = std::time::Instant::now();
    let s = decode(&text).unwrap();
    let took = t0.elapsed();
    assert_eq!(s, "kernel_fusion é中😀 \n \" é ".repeat(reps));
    assert!(
        took < std::time::Duration::from_secs(2),
        "4 MB literal took {took:?}"
    );
}

#[test]
fn nesting_depth_is_limited_not_a_stack_overflow() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(serde_json::from_str::<serde_json::Value>(&nested(512)).is_ok());
    let e = serde_json::from_str::<serde_json::Value>(&nested(513)).unwrap_err();
    assert!(e.to_string().contains("nesting deeper than 512"), "{e}");
    let objects = format!("{}1{}", r#"{"a":"#.repeat(600), "}".repeat(600));
    assert!(serde_json::from_str::<serde_json::Value>(&objects).is_err());
    // A 400 KB run of `[` is refused long before it could exhaust a stack.
    assert!(serde_json::from_str::<serde_json::Value>(&"[".repeat(400 * 1024)).is_err());
    // Closing a level frees it: many sibling containers at depth 2 are fine.
    let siblings = format!("[{}[]]", "[[]],".repeat(1000));
    assert!(serde_json::from_str::<serde_json::Value>(&siblings).is_ok());
}

#[test]
fn wide_object_decodes_in_linear_time() {
    // 80k distinct keys in one object (~1.2 MB): duplicate detection must
    // not scan every earlier key per insert.
    let keys = 80_000;
    let body: Vec<String> = (0..keys).map(|i| format!("\"key{i:07}\":{i}")).collect();
    let text = format!("{{{}}}", body.join(","));
    assert!(text.len() >= 1_200_000);
    let t0 = std::time::Instant::now();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let took = t0.elapsed();
    let m = v.as_object().unwrap();
    assert_eq!(m.len(), keys);
    assert_eq!(m.get("key0041234").and_then(|v| v.as_u64()), Some(41_234));
    assert!(
        took < std::time::Duration::from_secs(1),
        "{keys}-key object took {took:?}"
    );
}

#[test]
fn repeated_object_key_replaces_its_value_in_place() {
    // Narrow objects (pairwise key comparison) and wide ones (hash index)
    // keep one rule: a repeated key takes its last value and keeps the
    // position of its first occurrence; every other key stays in order.
    for width in [3usize, 40] {
        let mut fields: Vec<String> = (0..width).map(|i| format!("\"k{i}\":{i}")).collect();
        fields.push("\"k1\":\"again\"".into());
        fields.push("\"k1\":\"last\"".into());
        fields.push("\"tail\":true".into());
        let v: serde_json::Value =
            serde_json::from_str(&format!("{{{}}}", fields.join(","))).unwrap();
        let m = v.as_object().unwrap();
        assert_eq!(m.len(), width + 1, "width {width}");
        let keys: Vec<&str> = m.keys().map(String::as_str).collect();
        let mut want: Vec<String> = (0..width).map(|i| format!("k{i}")).collect();
        want.push("tail".into());
        assert_eq!(keys, want.iter().map(String::as_str).collect::<Vec<_>>());
        assert_eq!(m.get("k1").and_then(|v| v.as_str()), Some("last"));
        assert_eq!(m.get("k0").and_then(|v| v.as_u64()), Some(0));
        // Removing a key keeps the rest findable and in order.
        let mut m = m.clone();
        assert_eq!(m.remove("k0").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(m.get("tail").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(m.keys().next().map(String::as_str), Some("k1"));
        assert!(m.get("k0").is_none());
    }
}
