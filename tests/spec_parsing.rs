//! Property-based tests for the Yaml-subset pod-spec parser: any spec the
//! builder can express survives a render → parse round trip.

use proptest::prelude::*;

use microedge::orch::pod::{PodSpec, ResourceRequest};
use microedge::orch::spec::parse_pod_spec;

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,20}".prop_map(|s| s)
}

fn label_key() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9./-]{0,24}[a-z0-9]".prop_map(|s| s)
}

#[derive(Debug, Clone)]
struct SpecInput {
    name: String,
    image: String,
    cpu_millis: u32,
    mem_mib: u64,
    selectors: Vec<(String, String)>,
    group: Option<String>,
    extensions: Vec<(String, String)>,
}

fn spec_input() -> impl Strategy<Value = SpecInput> {
    (
        ident(),
        ident(),
        1u32..8_000,
        1u64..4_096,
        prop::collection::vec((label_key(), ident()), 0..4),
        prop::option::of(ident()),
        prop::collection::vec((label_key(), ident()), 0..4),
    )
        .prop_map(
            |(name, image, cpu_millis, mem_mib, selectors, group, extensions)| SpecInput {
                name,
                image,
                cpu_millis,
                mem_mib,
                selectors,
                group,
                extensions,
            },
        )
}

fn render(input: &SpecInput) -> String {
    let mut out = String::new();
    out.push_str(&format!("name: {}\n", input.name));
    out.push_str(&format!("image: {}\n", input.image));
    out.push_str("resources:\n");
    out.push_str(&format!("  cpu: {}m\n", input.cpu_millis));
    out.push_str(&format!("  memory: {}Mi\n", input.mem_mib));
    if !input.selectors.is_empty() {
        out.push_str("nodeSelector:\n");
        for (k, v) in &input.selectors {
            out.push_str(&format!("  {k}: {v}\n"));
        }
    }
    if let Some(group) = &input.group {
        out.push_str(&format!("antiAffinityGroup: {group}\n"));
    }
    if !input.extensions.is_empty() {
        out.push_str("extensions:\n");
        for (k, v) in &input.extensions {
            out.push_str(&format!("  {k}: \"{v}\"\n"));
        }
    }
    out
}

fn expected(input: &SpecInput) -> PodSpec {
    let mut builder = PodSpec::builder(input.name.as_str(), input.image.as_str()).resources(
        ResourceRequest::new(input.cpu_millis, input.mem_mib * 1024 * 1024),
    );
    for (k, v) in &input.selectors {
        builder = builder.node_selector(k, v);
    }
    if let Some(group) = &input.group {
        builder = builder.anti_affinity_group(group);
    }
    for (k, v) in &input.extensions {
        builder = builder.extension(k, v);
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_parse_roundtrip(input in spec_input()) {
        let text = render(&input);
        let parsed = parse_pod_spec(&text).unwrap_or_else(|e| panic!("{e}\n---\n{text}"));
        prop_assert_eq!(parsed, expected(&input));
    }

    /// Injected garbage lines are rejected, never silently ignored.
    #[test]
    fn garbage_top_level_keys_rejected(input in spec_input(), key in "[a-zA-Z]{3,10}") {
        prop_assume!(![
            "name", "image", "resources", "nodeSelector", "antiAffinityGroup", "extensions",
        ]
        .contains(&key.as_str()));
        let text = format!("{}{key}: oops\n", render(&input));
        prop_assert!(parse_pod_spec(&text).is_err());
    }

    /// Comments and blank lines never change the parse.
    #[test]
    fn comments_are_transparent(input in spec_input()) {
        let plain = parse_pod_spec(&render(&input)).unwrap();
        let mut commented = String::from("# generated by proptest\n\n");
        for line in render(&input).lines() {
            commented.push_str(line);
            commented.push('\n');
            commented.push_str("# noise\n");
        }
        let parsed = parse_pod_spec(&commented).unwrap();
        prop_assert_eq!(parsed, plain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parser never panics, whatever bytes arrive.
    #[test]
    fn parser_never_panics(text in "\\PC*") {
        let _ = parse_pod_spec(&text);
    }

    /// Structured noise (colons, indentation, unicode) never panics either
    /// and either parses cleanly or reports a line number.
    #[test]
    fn structured_noise_errors_carry_line_numbers(
        lines in prop::collection::vec("[ ]{0,4}[a-zA-Z:#/.\"']{0,12}", 0..20),
    ) {
        let text = lines.join("\n");
        if let Err(e) = parse_pod_spec(&text) {
            prop_assert!(e.line() <= lines.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// TpuRequest extension parsing never panics on arbitrary extension
    /// values, and accepted lists always pair every model with a positive
    /// units value.
    #[test]
    fn tpu_request_parsing_is_total(models in "[a-z0-9,.\\- ]{0,40}", units in "[0-9eE+\\-,. ]{0,40}") {
        use microedge::core::scheduler::TpuRequest;
        use microedge::orch::pod::{EXT_MODEL, EXT_TPU_UNITS};
        let spec = PodSpec::builder("fuzz", "img")
            .extension(EXT_MODEL, &models)
            .extension(EXT_TPU_UNITS, &units)
            .build();
        if let Ok(requests) = TpuRequest::from_spec(&spec) {
            for r in requests {
                prop_assert!(!r.model().as_str().is_empty());
                prop_assert!(r.units().as_micro() > 0);
            }
        }
    }
}
