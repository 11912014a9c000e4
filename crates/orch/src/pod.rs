//! Pods: the unit of deployment.
//!
//! Mirrors the K3s/Kubernetes pod model at the fidelity MicroEdge's extended
//! scheduler consumes: a named spec with CPU/memory requests, node-selector
//! labels, an optional anti-affinity group, and free-form **extensions** —
//! string key/value pairs carrying MicroEdge's two extra knobs (`Model` and
//! `TPU Units`, paper §4.1) without the orchestrator substrate having to
//! know about them.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// The extension key carrying the requested model name.
pub const EXT_MODEL: &str = "microedge.io/model";
/// The extension key carrying the requested fractional TPU units.
pub const EXT_TPU_UNITS: &str = "microedge.io/tpu-units";

/// Identifies a pod instance for its whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PodId(pub u64);

impl PodId {
    /// This id as its slot in a slab indexed by pod id: ids are issued
    /// densely from 0. An id beyond the address space maps to a slot no
    /// slab reaches.
    #[must_use]
    pub fn index(self) -> usize {
        usize::try_from(self.0).unwrap_or(usize::MAX)
    }
}

impl fmt::Display for PodId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pod-{}", self.0)
    }
}

/// Lifecycle phase of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PodPhase {
    /// Accepted and bound to a node; containers running.
    Running,
    /// Terminated (completed or deleted); resources reclaimed.
    Terminated,
}

/// CPU and memory requests, in the units K3s uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceRequest {
    cpu_millis: u32,
    mem_bytes: u64,
}

impl ResourceRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if either request is zero — a pod that requests nothing can
    /// never be accounted for.
    #[must_use]
    pub fn new(cpu_millis: u32, mem_bytes: u64) -> Self {
        assert!(cpu_millis > 0, "CPU request must be non-zero");
        assert!(mem_bytes > 0, "memory request must be non-zero");
        ResourceRequest {
            cpu_millis,
            mem_bytes,
        }
    }

    /// A typical camera-pipeline container: 500 millicores, 256 MiB.
    #[must_use]
    pub fn camera_default() -> Self {
        ResourceRequest::new(500, 256 * 1024 * 1024)
    }

    /// CPU request in millicores.
    #[must_use]
    pub fn cpu_millis(&self) -> u32 {
        self.cpu_millis
    }

    /// Memory request in bytes.
    #[must_use]
    pub fn mem_bytes(&self) -> u64 {
        self.mem_bytes
    }
}

/// A pod creation request, as parsed from the client's Yaml file.
///
/// Construct with [`PodSpec::builder`].
///
/// # Examples
///
/// ```
/// use microedge_orch::pod::{PodSpec, ResourceRequest, EXT_MODEL, EXT_TPU_UNITS};
///
/// let spec = PodSpec::builder("camera-0", "coral-pie:latest")
///     .resources(ResourceRequest::camera_default())
///     .extension(EXT_MODEL, "ssd-mobilenet-v2")
///     .extension(EXT_TPU_UNITS, "0.35")
///     .build();
/// assert_eq!(spec.extension(EXT_TPU_UNITS), Some("0.35"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PodSpec {
    /// Shared, not copied: a caller that already holds the name (a camera
    /// stream's record) and the orchestrator's live-name index point at
    /// one allocation.
    name: Arc<str>,
    image: Arc<str>,
    resources: ResourceRequest,
    /// The rarely set placement constraints and extensions, boxed so a
    /// camera pod (which sets none) stays one pointer wide here; `None`
    /// exactly when all three are empty.
    extras: Option<Box<PodExtras>>,
}

const _: () = assert!(std::mem::size_of::<PodSpec>() <= 56);

/// The parts of a [`PodSpec`] that most pods leave empty.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct PodExtras {
    node_selector: BTreeMap<String, String>,
    anti_affinity_group: Option<String>,
    /// Sorted by key, keys unique: a Yaml pod carries two entries, which a
    /// `BTreeMap` would hold in a ~544-byte leaf node.
    extensions: Vec<(String, String)>,
}

/// The selector of a pod without extras.
static NO_SELECTOR: BTreeMap<String, String> = BTreeMap::new();

impl PodSpec {
    /// Starts building a spec for the given pod name and container image.
    /// Pass an `Arc<str>` to share a string the caller already holds.
    #[must_use]
    pub fn builder(name: impl Into<Arc<str>>, image: impl Into<Arc<str>>) -> PodSpecBuilder {
        PodSpecBuilder {
            name: name.into(),
            image: image.into(),
            resources: ResourceRequest::camera_default(),
            extras: PodExtras::default(),
        }
    }

    /// Pod name (unique among live pods).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pod name's shared allocation.
    pub(crate) fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// Container image reference.
    #[must_use]
    pub fn image(&self) -> &str {
        &self.image
    }

    /// CPU/memory requests.
    #[must_use]
    pub fn resources(&self) -> ResourceRequest {
        self.resources
    }

    /// Node labels this pod requires.
    #[must_use]
    pub fn node_selector(&self) -> &BTreeMap<String, String> {
        self.extras
            .as_ref()
            .map_or(&NO_SELECTOR, |e| &e.node_selector)
    }

    /// Anti-affinity group: no two pods of the same group land on one node.
    #[must_use]
    pub fn anti_affinity_group(&self) -> Option<&str> {
        self.extras.as_ref()?.anti_affinity_group.as_deref()
    }

    /// All extension key/value pairs, in key order.
    #[must_use]
    pub fn extensions(&self) -> &[(String, String)] {
        self.extras.as_ref().map_or(&[], |e| &e.extensions)
    }

    /// Looks up one extension value.
    #[must_use]
    pub fn extension(&self, key: &str) -> Option<&str> {
        let extensions = self.extensions();
        extensions
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .and_then(|i| extensions.get(i))
            .map(|(_, v)| v.as_str())
    }
}

/// Builder for [`PodSpec`].
#[derive(Debug, Clone)]
pub struct PodSpecBuilder {
    name: Arc<str>,
    image: Arc<str>,
    resources: ResourceRequest,
    extras: PodExtras,
}

impl PodSpecBuilder {
    /// Sets the CPU/memory requests (default:
    /// [`ResourceRequest::camera_default`]).
    #[must_use]
    pub fn resources(mut self, resources: ResourceRequest) -> Self {
        self.resources = resources;
        self
    }

    /// Requires a node label.
    #[must_use]
    pub fn node_selector(mut self, key: &str, value: &str) -> Self {
        self.extras
            .node_selector
            .insert(key.to_owned(), value.to_owned());
        self
    }

    /// Sets the anti-affinity group.
    #[must_use]
    pub fn anti_affinity_group(mut self, group: &str) -> Self {
        self.extras.anti_affinity_group = Some(group.to_owned());
        self
    }

    /// Adds an extension key/value pair, replacing the value of an
    /// existing key.
    #[must_use]
    pub fn extension(mut self, key: &str, value: &str) -> Self {
        let extensions = &mut self.extras.extensions;
        match extensions.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => {
                if let Some((_, v)) = extensions.get_mut(i) {
                    value.clone_into(v);
                }
            }
            Err(i) => extensions.insert(i, (key.to_owned(), value.to_owned())),
        }
        self
    }

    /// Finalises the spec.
    ///
    /// # Panics
    ///
    /// Panics if the pod name or image is empty.
    #[must_use]
    pub fn build(self) -> PodSpec {
        assert!(!self.name.is_empty(), "pod name must be non-empty");
        assert!(!self.image.is_empty(), "image must be non-empty");
        PodSpec {
            name: self.name,
            image: self.image,
            resources: self.resources,
            extras: (self.extras != PodExtras::default()).then(|| Box::new(self.extras)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let spec = PodSpec::builder("cam", "img:v1")
            .resources(ResourceRequest::new(250, 1024))
            .node_selector("zone", "east")
            .anti_affinity_group("coral-pie")
            .extension(EXT_MODEL, "unet-v2")
            .build();
        assert_eq!(spec.name(), "cam");
        assert_eq!(spec.image(), "img:v1");
        assert_eq!(spec.resources().cpu_millis(), 250);
        assert_eq!(spec.node_selector().get("zone").unwrap(), "east");
        assert_eq!(spec.anti_affinity_group(), Some("coral-pie"));
        assert_eq!(spec.extension(EXT_MODEL), Some("unet-v2"));
        assert_eq!(spec.extension(EXT_TPU_UNITS), None);
    }

    #[test]
    fn extensions_keep_map_semantics() {
        let spec = PodSpec::builder("cam", "img")
            .extension("z", "1")
            .extension(EXT_TPU_UNITS, "0.35")
            .extension("a", "2")
            .extension(EXT_TPU_UNITS, "0.5")
            .build();
        assert_eq!(
            spec.extension(EXT_TPU_UNITS),
            Some("0.5"),
            "last value wins"
        );
        let keys: Vec<&str> = spec.extensions().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", EXT_TPU_UNITS, "z"], "key order, no duplicates");
        assert_eq!(spec.extension("missing"), None);
        assert_eq!(spec.extension(EXT_MODEL), None);
    }

    #[test]
    fn defaults_are_sane() {
        let spec = PodSpec::builder("p", "i").build();
        assert_eq!(spec.resources(), ResourceRequest::camera_default());
        assert!(spec.node_selector().is_empty());
        assert!(spec.anti_affinity_group().is_none());
    }

    #[test]
    #[should_panic(expected = "pod name")]
    fn empty_name_rejected() {
        let _ = PodSpec::builder("", "i").build();
    }

    #[test]
    #[should_panic(expected = "memory request")]
    fn zero_memory_rejected() {
        let _ = ResourceRequest::new(100, 0);
    }

    #[test]
    fn pod_id_display() {
        assert_eq!(PodId(12).to_string(), "pod-12");
    }
}
