//! The simulated Web: a registry of hosts, their pages and their behaviour.
//!
//! [`SimulatedWeb`] is the offline stand-in for the live Web the paper's
//! tooling crawls. Each registered [`SiteHost`] owns a set of paths mapping
//! to [`PageContent`] (HTML pages, JSON documents, redirects, or error
//! statuses), a per-host latency model, optional outage and HTTP-only
//! flags, and per-path extra headers (e.g. `X-Robots-Tag: noindex` on
//! service sites).
//!
//! # The frozen page store
//!
//! The corpus is write-once, read-hundreds-of-times: every page is rendered
//! exactly once during generation and then re-read by the classifier, the
//! Figure 4 similarity sweeps, the validation bot and the benches. The
//! storage layer therefore follows the standard read-mostly-snapshot
//! design:
//!
//! * page bodies are interned as [`PageBody`] — an immutable, UTF-8,
//!   refcounted buffer — at registration time, so *no* later layer ever
//!   copies a body (serving bumps a refcount, reading borrows `&str`);
//! * [`SimulatedWeb::freeze`] snapshots the host table into a
//!   [`FrozenWeb`]: an `Arc`-shared immutable map with **no lock on the
//!   read path**, whose accessors hand out real borrows
//!   ([`FrozenWeb::page_html`]) rather than guard-bounded views;
//! * the `SimulatedWeb` itself becomes a thin mutable *overlay* above its
//!   frozen base: post-freeze registrations (the governance replay's defect
//!   hosts) and copy-on-write [`update_host`](SimulatedWeb::update_host)
//!   mutations land in the overlay, while the frozen snapshot — and every
//!   borrowed view taken from it — stays valid and unchanged;
//! * until the first write, a `SimulatedWeb` reads its construction-time
//!   base directly, without its lock — so the fresh webs load fetchers
//!   read through never contend on it.

use crate::headers::HeaderMap;
use crate::message::StatusCode;
use crate::store::ShardedFrozenWeb;
use crate::url::Url;
use bytes::Bytes;
use parking_lot::RwLock;
use rws_domain::DomainName;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLockWriteGuard};

/// An interned, immutable page body: UTF-8 text backed by a refcounted
/// [`Bytes`] buffer. Cloning is O(1); [`as_str`](PageBody::as_str) borrows
/// and [`bytes`](PageBody::bytes) shares the buffer with a `Response`
/// without copying.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct PageBody {
    bytes: Bytes,
}

impl PageBody {
    /// The single intern point: every constructor funnels through here, so
    /// this is the one place the UTF-8 invariant behind
    /// [`as_str`](PageBody::as_str) is established.
    fn intern(bytes: Bytes) -> PageBody {
        debug_assert!(
            std::str::from_utf8(&bytes).is_ok(),
            "PageBody buffers must be valid UTF-8"
        );
        PageBody { bytes }
    }

    /// Intern a body. The single copy of the page's lifetime happens here.
    pub fn new<S: Into<String>>(text: S) -> PageBody {
        PageBody::intern(Bytes::from(text.into()))
    }

    /// Intern raw bytes after checking they are UTF-8 — the constructor to
    /// use for buffers that did not come from `str`/`String`. Returns
    /// `None` (rather than corrupting [`as_str`](PageBody::as_str)) when
    /// the bytes are not valid UTF-8.
    pub fn from_utf8(bytes: Bytes) -> Option<PageBody> {
        std::str::from_utf8(&bytes).ok()?;
        Some(PageBody::intern(bytes))
    }

    /// Borrow the body as text.
    pub fn as_str(&self) -> &str {
        // Safety: every constructor funnels through `intern`, whose callers
        // supply `str`/`String` data or (for `from_utf8`) pre-validate, so
        // the buffer is valid UTF-8 by construction.
        unsafe { std::str::from_utf8_unchecked(&self.bytes) }
    }

    /// A copy of this body cut to at most `max_len` bytes, snapped *down*
    /// to a char boundary so the result remains valid UTF-8 (the fault
    /// injector's truncated-payload fault). Bodies already within the limit
    /// are shared, not copied.
    pub fn truncated(&self, max_len: usize) -> PageBody {
        if max_len >= self.len() {
            return self.clone();
        }
        let s = self.as_str();
        let mut cut = max_len;
        while cut > 0 && !s.is_char_boundary(cut) {
            cut -= 1;
        }
        PageBody::from(&s[..cut])
    }

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Share the underlying buffer (refcount bump, no copy) — what the
    /// fetcher puts on `Response.body`.
    pub fn bytes(&self) -> Bytes {
        self.bytes.clone()
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the body is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl std::ops::Deref for PageBody {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for PageBody {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl From<String> for PageBody {
    fn from(s: String) -> PageBody {
        PageBody::new(s)
    }
}

impl From<&str> for PageBody {
    /// Intern a borrowed body with a single copy, straight into the shared
    /// buffer — the path arena-rendered pages take (`PageBody::new` via
    /// `Into<String>` would copy twice: once into the `String`, once into
    /// `Bytes`).
    fn from(s: &str) -> PageBody {
        PageBody::intern(Bytes::copy_from_slice(s.as_bytes()))
    }
}

impl PartialEq<str> for PageBody {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for PageBody {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl fmt::Debug for PageBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for PageBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What a host serves at a particular path. Body-carrying variants hold
/// interned [`PageBody`]s, so cloning a `PageContent` (e.g. into a
/// [`ServedPage`]) is a refcount bump, never a page copy.
#[derive(Debug, Clone, PartialEq)]
pub enum PageContent {
    /// An HTML page served with `Content-Type: text/html`.
    Html(PageBody),
    /// A JSON document served with `Content-Type: application/json`.
    Json(PageBody),
    /// Plain text.
    Text(PageBody),
    /// A redirect to another URL or absolute path.
    Redirect {
        /// Redirect target (absolute URL or absolute path).
        location: String,
        /// Whether to use 301 (permanent) or 302 (found).
        permanent: bool,
    },
    /// A fixed non-success status with an optional body.
    Error {
        /// The status code to return.
        status: StatusCode,
        /// Body text served with the error.
        body: PageBody,
    },
}

impl PageContent {
    /// The interned body, for variants that carry one (redirects do not).
    pub fn body(&self) -> Option<&PageBody> {
        match self {
            PageContent::Html(body)
            | PageContent::Json(body)
            | PageContent::Text(body)
            | PageContent::Error { body, .. } => Some(body),
            PageContent::Redirect { .. } => None,
        }
    }

    /// The body as borrowed text, if this is an HTML page.
    pub fn html(&self) -> Option<&str> {
        match self {
            PageContent::Html(body) => Some(body.as_str()),
            _ => None,
        }
    }
}

/// Deterministic latency model for a host.
///
/// Latency is *simulated*: it is reported on the [`Response`] rather than
/// slept, so experiments remain fast and reproducible. The model is a base
/// cost plus a per-kilobyte transfer cost, which is enough to drive the
/// fetch-budget ablations.
///
/// [`Response`]: crate::message::Response
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// Fixed per-request cost in milliseconds (connection + TTFB).
    pub base_ms: u64,
    /// Additional cost per kilobyte of body, in milliseconds.
    pub per_kb_ms: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            base_ms: 40,
            per_kb_ms: 2,
        }
    }
}

impl LatencyModel {
    /// Latency for a response body of `body_len` bytes.
    pub fn latency_for(&self, body_len: usize) -> u64 {
        self.base_ms + self.per_kb_ms * (body_len as u64 / 1024)
    }
}

/// A single host in the simulated web.
#[derive(Debug, Clone)]
pub struct SiteHost {
    host: DomainName,
    pages: HashMap<String, PageContent>,
    page_headers: HashMap<String, Arc<HeaderMap>>,
    latency: LatencyModel,
    /// If true, connections are refused (simulated outage).
    offline: bool,
    /// If true, the host only serves plain HTTP (https URLs get redirected
    /// down to http, which the RWS validation rejects).
    http_only: bool,
}

impl SiteHost {
    /// Create a host for the given domain name string.
    pub fn new(host: &str) -> Result<SiteHost, rws_domain::DomainError> {
        Ok(SiteHost::for_domain(DomainName::parse(host)?))
    }

    /// Create a host from an already-validated domain name.
    pub fn for_domain(host: DomainName) -> SiteHost {
        SiteHost {
            host,
            pages: HashMap::new(),
            page_headers: HashMap::new(),
            latency: LatencyModel::default(),
            offline: false,
            http_only: false,
        }
    }

    /// The host's domain name.
    pub fn domain(&self) -> &DomainName {
        &self.host
    }

    /// Serve an HTML page at `path`. The body is interned once, here.
    pub fn add_page<S: Into<PageBody>>(&mut self, path: &str, html: S) -> &mut Self {
        self.pages
            .insert(path.to_string(), PageContent::Html(html.into()));
        self
    }

    /// Serve a JSON document at `path`.
    pub fn add_json<S: Into<PageBody>>(&mut self, path: &str, json: S) -> &mut Self {
        self.pages
            .insert(path.to_string(), PageContent::Json(json.into()));
        self
    }

    /// Serve arbitrary content at `path`.
    pub fn add_content(&mut self, path: &str, content: PageContent) -> &mut Self {
        self.pages.insert(path.to_string(), content);
        self
    }

    /// Add an extra response header for a specific path (e.g. the
    /// `X-Robots-Tag` header required on service sites).
    pub fn add_header(&mut self, path: &str, name: &str, value: &str) -> &mut Self {
        Arc::make_mut(self.page_headers.entry(path.to_string()).or_default()).set(name, value);
        self
    }

    /// Replace the latency model.
    pub fn set_latency(&mut self, latency: LatencyModel) -> &mut Self {
        self.latency = latency;
        self
    }

    /// Mark the host as offline (connections refused).
    pub fn set_offline(&mut self, offline: bool) -> &mut Self {
        self.offline = offline;
        self
    }

    /// Mark the host as HTTP-only (no TLS).
    pub fn set_http_only(&mut self, http_only: bool) -> &mut Self {
        self.http_only = http_only;
        self
    }

    /// Whether the host is currently offline.
    pub fn is_offline(&self) -> bool {
        self.offline
    }

    /// Whether the host serves only plain HTTP.
    pub fn is_http_only(&self) -> bool {
        self.http_only
    }

    /// The latency model in force.
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// Content registered at `path`, if any.
    pub fn page(&self, path: &str) -> Option<&PageContent> {
        self.pages.get(path)
    }

    /// The interned body registered at `path`, if the content there carries
    /// one.
    pub fn page_body(&self, path: &str) -> Option<&PageBody> {
        self.pages.get(path).and_then(PageContent::body)
    }

    /// The HTML registered at `path`, borrowed, if that path serves HTML.
    pub fn page_html(&self, path: &str) -> Option<&str> {
        self.pages.get(path).and_then(PageContent::html)
    }

    /// Extra headers registered for `path`.
    pub fn headers_for(&self, path: &str) -> Option<&HeaderMap> {
        self.page_headers.get(path).map(Arc::as_ref)
    }

    /// Extra headers for `path` as a shared handle — what
    /// [`ServedPage::Content`] carries, so serving never copies the map.
    pub fn shared_headers_for(&self, path: &str) -> Option<&Arc<HeaderMap>> {
        self.page_headers.get(path)
    }

    /// All registered paths, sorted.
    pub fn paths(&self) -> Vec<&str> {
        let mut p: Vec<&str> = self.pages.keys().map(String::as_str).collect();
        p.sort_unstable();
        p
    }

    /// What this host serves for `url` (the host-level half of
    /// [`SimulatedWeb::serve`], shared with [`FrozenWeb::serve`]). Assumes
    /// `url.host` already routed here.
    fn serve_path(&self, url: &Url) -> ServedPage {
        if self.is_offline() {
            return ServedPage::Refused;
        }
        if url.is_https() && self.is_http_only() {
            return ServedPage::TlsUnavailable;
        }
        match self.page(&url.path) {
            Some(content) => ServedPage::Content {
                content: content.clone(),
                extra_headers: self.shared_headers_for(&url.path).cloned(),
                latency: self.latency(),
            },
            None => ServedPage::Missing {
                latency: self.latency(),
            },
        }
    }
}

/// An immutable, `Arc`-shared snapshot of a web's host table.
///
/// There is no lock anywhere on the read path: lookups walk a plain
/// `HashMap` behind an `Arc`, so accessors can hand out genuine borrows
/// ([`page_html`](FrozenWeb::page_html) returns `&str` tied to `&self`,
/// not to a lock guard) and concurrent pool tasks read without contention.
/// Cloning a `FrozenWeb` is a refcount bump.
#[derive(Debug, Clone, Default)]
pub struct FrozenWeb {
    hosts: Arc<HashMap<DomainName, SiteHost>>,
}

impl FrozenWeb {
    /// Freeze an explicit host table.
    pub fn from_hosts<I: IntoIterator<Item = SiteHost>>(hosts: I) -> FrozenWeb {
        FrozenWeb {
            hosts: Arc::new(hosts.into_iter().map(|h| (h.domain().clone(), h)).collect()),
        }
    }

    /// The host registered under `host`, if any. Lock-free.
    pub fn host(&self, host: &DomainName) -> Option<&SiteHost> {
        self.hosts.get(host)
    }

    /// True if a host with this name exists.
    pub fn has_host(&self, host: &DomainName) -> bool {
        self.hosts.contains_key(host)
    }

    /// Number of hosts in the snapshot.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// All host names, sorted.
    pub fn hosts(&self) -> Vec<DomainName> {
        let mut hosts: Vec<DomainName> = self.hosts.keys().cloned().collect();
        hosts.sort();
        hosts
    }

    /// The interned body a host serves at `path`, borrowed from the
    /// snapshot.
    pub fn page_body(&self, host: &DomainName, path: &str) -> Option<&PageBody> {
        self.hosts.get(host).and_then(|h| h.page_body(path))
    }

    /// The HTML a host serves at `path`, borrowed from the snapshot —
    /// the zero-copy read the classifier and the similarity sweeps run on.
    pub fn page_html(&self, host: &DomainName, path: &str) -> Option<&str> {
        self.hosts.get(host).and_then(|h| h.page_html(path))
    }

    /// Resolve what a host would serve for a URL — identical semantics to
    /// [`SimulatedWeb::serve`], without the lock. Body and headers on the
    /// result are refcount bumps into the snapshot.
    pub fn serve(&self, url: &Url) -> ServedPage {
        match self.hosts.get(&url.host) {
            Some(host) => host.serve_path(url),
            None => ServedPage::NoSuchHost,
        }
    }

    /// Iterate the host table, in map order (unspecified). Borrowed from
    /// the snapshot; used by the sharded store to reshard and collapse
    /// without copying page payloads.
    pub fn iter_hosts(&self) -> impl Iterator<Item = (&DomainName, &SiteHost)> {
        self.hosts.iter()
    }

    /// True when `other` shares this snapshot's host table (refcount
    /// identity, not deep comparison). This is the pin for
    /// [`SimulatedWeb::freeze`]'s fast path: freezing with an empty
    /// overlay hands back the *same* table, `ptr_eq`-verifiable.
    pub fn ptr_eq(&self, other: &FrozenWeb) -> bool {
        Arc::ptr_eq(&self.hosts, &other.hosts)
    }

    /// A mutable web view over this snapshot: reads fall through to the
    /// frozen base, writes land in a fresh overlay. The snapshot itself is
    /// never touched.
    pub fn to_web(&self) -> SimulatedWeb {
        SimulatedWeb::from_frozen(self.clone())
    }
}

/// The immutable base a [`SimulatedWeb`] reads through: one table, or a
/// sharded store. Reads resolve overlay-then-base either way; the
/// distinction only matters for which snapshot flavour freezing reuses.
#[derive(Debug, Clone)]
enum FrozenBase {
    Single(FrozenWeb),
    Sharded(ShardedFrozenWeb),
}

impl Default for FrozenBase {
    fn default() -> Self {
        FrozenBase::Single(FrozenWeb::default())
    }
}

impl FrozenBase {
    fn host(&self, host: &DomainName) -> Option<&SiteHost> {
        match self {
            FrozenBase::Single(f) => f.host(host),
            FrozenBase::Sharded(s) => s.host(host),
        }
    }

    fn has_host(&self, host: &DomainName) -> bool {
        match self {
            FrozenBase::Single(f) => f.has_host(host),
            FrozenBase::Sharded(s) => s.has_host(host),
        }
    }

    fn host_count(&self) -> usize {
        match self {
            FrozenBase::Single(f) => f.host_count(),
            FrozenBase::Sharded(s) => s.host_count(),
        }
    }

    fn host_names(&self) -> Vec<DomainName> {
        match self {
            FrozenBase::Single(f) => f.hosts.keys().cloned().collect(),
            FrozenBase::Sharded(s) => s
                .shards()
                .iter()
                .flat_map(|f| f.hosts.keys().cloned())
                .collect(),
        }
    }

    /// A fresh owned copy of the full table (refcount-bump host clones),
    /// the starting point for an overlay merge.
    fn cloned_table(&self) -> HashMap<DomainName, SiteHost> {
        match self {
            FrozenBase::Single(f) => (*f.hosts).clone(),
            FrozenBase::Sharded(s) => s
                .shards()
                .iter()
                .flat_map(|f| f.iter_hosts().map(|(d, h)| (d.clone(), h.clone())))
                .collect(),
        }
    }
}

/// Shared state of a [`SimulatedWeb`]: the immutable frozen base plus the
/// mutable overlay of post-freeze registrations and copy-on-write edits.
/// Overlay entries shadow same-named frozen hosts.
#[derive(Debug, Default)]
struct WebState {
    base: FrozenBase,
    overlay: HashMap<DomainName, SiteHost>,
}

impl WebState {
    /// A state reading straight through to `base`.
    fn over(base: FrozenBase) -> WebState {
        WebState {
            base,
            overlay: HashMap::new(),
        }
    }

    fn host(&self, host: &DomainName) -> Option<&SiteHost> {
        self.overlay.get(host).or_else(|| self.base.host(host))
    }
}

/// What every clone of a [`SimulatedWeb`] shares.
#[derive(Debug, Default)]
struct WebShared {
    /// The web as it was built: its frozen base under an empty overlay.
    /// Reads use it, without the lock, until the first write.
    initial: WebState,
    /// Set (Release) by every mutating method before it takes the write
    /// lock; reads check it (Acquire) to choose `initial` or `state`.
    written: AtomicBool,
    /// The live state, guarded, once anything was written.
    state: RwLock<WebState>,
}

/// The registry of every host in the simulated web.
///
/// Cloning a `SimulatedWeb` is cheap (it is an `Arc` around shared state),
/// so the same web can be handed to the fetcher, the validation bot and the
/// browser engine simultaneously. [`freeze`](SimulatedWeb::freeze) snapshots
/// the current hosts into an immutable [`FrozenWeb`]; later writes go to a
/// mutable overlay shared by every clone, leaving the snapshot untouched.
///
/// An *unwritten* web reads without its lock. Every clone shares the base
/// the web was built over and a `written` flag that each mutating method
/// ([`register`](SimulatedWeb::register),
/// [`update_host`](SimulatedWeb::update_host), the freezes) sets before it
/// takes the write lock. Until the flag is set, reads go straight to the
/// construction-time base; afterwards they take the read lock and see the
/// overlay too. A web built over a snapshot and only ever read — what
/// [`Fetcher`](crate::Fetcher)s over a load target use — never touches
/// the lock, and a write through any clone is seen by every later read.
#[derive(Debug, Clone, Default)]
pub struct SimulatedWeb {
    inner: Arc<WebShared>,
}

impl SimulatedWeb {
    /// Create an empty web.
    pub fn new() -> SimulatedWeb {
        SimulatedWeb::default()
    }

    fn over(base: FrozenBase) -> SimulatedWeb {
        SimulatedWeb {
            inner: Arc::new(WebShared {
                initial: WebState::over(base.clone()),
                written: AtomicBool::new(false),
                state: RwLock::new(WebState::over(base)),
            }),
        }
    }

    /// Create a web whose read path falls through to an existing frozen
    /// snapshot (shared, not copied).
    pub fn from_frozen(frozen: FrozenWeb) -> SimulatedWeb {
        SimulatedWeb::over(FrozenBase::Single(frozen))
    }

    /// Create a web whose read path falls through to a sharded frozen
    /// store (shared, not copied). Reads route overlay → shard → host;
    /// [`freeze_sharded`](SimulatedWeb::freeze_sharded) at the same shard
    /// count reuses the store when the overlay is empty.
    pub fn from_sharded(sharded: ShardedFrozenWeb) -> SimulatedWeb {
        SimulatedWeb::over(FrozenBase::Sharded(sharded))
    }

    /// Run `f` on the current state: the construction-time state, without
    /// the lock, while nothing was written; the guarded state afterwards.
    fn read<T>(&self, f: impl FnOnce(&WebState) -> T) -> T {
        if self.inner.written.load(Ordering::Acquire) {
            f(&self.inner.state.read())
        } else {
            f(&self.inner.initial)
        }
    }

    /// The write guard, taken only after marking the web written so that
    /// reads from then on go through the lock.
    fn write(&self) -> RwLockWriteGuard<'_, WebState> {
        self.inner.written.store(true, Ordering::Release);
        self.inner.state.write()
    }

    /// Register (or replace) a host. Post-freeze registrations land in the
    /// overlay and shadow any same-named frozen host.
    pub fn register(&mut self, host: SiteHost) {
        self.write().overlay.insert(host.domain().clone(), host);
    }

    /// True if a host with this name exists.
    pub fn has_host(&self, host: &DomainName) -> bool {
        self.read(|state| state.overlay.contains_key(host) || state.base.has_host(host))
    }

    /// Number of registered hosts.
    pub fn host_count(&self) -> usize {
        self.read(|state| {
            state.base.host_count()
                + state
                    .overlay
                    .keys()
                    .filter(|d| !state.base.has_host(d))
                    .count()
        })
    }

    /// All registered host names, sorted.
    pub fn hosts(&self) -> Vec<DomainName> {
        let mut hosts = self.read(|state| {
            let mut hosts: Vec<DomainName> = state.overlay.keys().cloned().collect();
            hosts.extend(
                state
                    .base
                    .host_names()
                    .into_iter()
                    .filter(|d| !state.overlay.contains_key(d)),
            );
            hosts
        });
        hosts.sort();
        hosts
    }

    /// Run a closure against a host's definition, if it exists.
    pub fn with_host<T>(&self, host: &DomainName, f: impl FnOnce(&SiteHost) -> T) -> Option<T> {
        self.read(|state| state.host(host).map(f))
    }

    /// Mutate a host's definition in place (e.g. take it offline mid-run).
    ///
    /// A frozen host is copied into the overlay first (cheap: interned
    /// bodies and shared header maps make the clone a bundle of refcount
    /// bumps), so the mutation is visible to every clone of this web while
    /// existing [`FrozenWeb`] snapshots keep serving the original.
    pub fn update_host(&mut self, host: &DomainName, f: impl FnOnce(&mut SiteHost)) -> bool {
        let mut state = self.write();
        if let Some(h) = state.overlay.get_mut(host) {
            f(h);
            return true;
        }
        match state.base.host(host).cloned() {
            Some(mut h) => {
                f(&mut h);
                state.overlay.insert(host.clone(), h);
                true
            }
            None => false,
        }
    }

    /// Freeze the current host table into an immutable [`FrozenWeb`] and
    /// make it this web's new base (the overlay drains into it). Every
    /// clone of this web observes the freeze, since the state is shared.
    ///
    /// Freezing an already-frozen web with an empty overlay is free — it
    /// hands back the existing snapshot (a refcount bump,
    /// [`FrozenWeb::ptr_eq`]-verifiable), never a rebuilt table. A web
    /// whose base is *sharded* collapses it into a single table once and
    /// caches that as the new base, so repeat freezes are again free.
    pub fn freeze(&self) -> FrozenWeb {
        let mut state = self.write();
        if state.overlay.is_empty() {
            if let FrozenBase::Single(frozen) = &state.base {
                return frozen.clone();
            }
        }
        let mut merged = state.base.cloned_table();
        merged.extend(state.overlay.drain());
        let frozen = FrozenWeb {
            hosts: Arc::new(merged),
        };
        state.base = FrozenBase::Single(frozen.clone());
        frozen
    }

    /// Freeze the current host table into a [`ShardedFrozenWeb`] over
    /// `shard_count` shards and make it this web's new base.
    ///
    /// Like [`freeze`](SimulatedWeb::freeze), the no-op case is free:
    /// an empty overlay over an already-sharded base at the same shard
    /// count hands back the existing store
    /// ([`ShardedFrozenWeb::ptr_eq`]-verifiable). Anything else — a
    /// single-table base, a different shard count, or pending overlay
    /// edits (which may land on different shards) — reshards once.
    pub fn freeze_sharded(&self, shard_count: usize) -> ShardedFrozenWeb {
        let mut state = self.write();
        if state.overlay.is_empty() {
            if let FrozenBase::Sharded(sharded) = &state.base {
                if sharded.shard_count() == shard_count {
                    return sharded.clone();
                }
            }
        }
        let mut merged = state.base.cloned_table();
        merged.extend(state.overlay.drain());
        let sharded = ShardedFrozenWeb::from_hosts(merged.into_values(), shard_count);
        state.base = FrozenBase::Sharded(sharded.clone());
        sharded
    }

    /// The current frozen base as a single table (empty if no freeze ever
    /// happened). Overlay entries are *not* included; a sharded base is
    /// collapsed on the fly without replacing it.
    pub fn frozen_base(&self) -> FrozenWeb {
        self.read(|state| match &state.base {
            FrozenBase::Single(frozen) => frozen.clone(),
            FrozenBase::Sharded(sharded) => sharded.collapse(),
        })
    }

    /// The current sharded base, when the last freeze was sharded.
    pub fn sharded_base(&self) -> Option<ShardedFrozenWeb> {
        self.read(|state| match &state.base {
            FrozenBase::Single(_) => None,
            FrozenBase::Sharded(sharded) => Some(sharded.clone()),
        })
    }

    /// Resolve what a host would serve for a URL, without going through the
    /// fetcher's policy layer. This is the "server side" of the simulation.
    /// The returned body/headers are refcount bumps, not copies.
    pub fn serve(&self, url: &Url) -> ServedPage {
        self.read(|state| match state.host(&url.host) {
            Some(host) => host.serve_path(url),
            None => ServedPage::NoSuchHost,
        })
    }
}

/// The raw outcome of asking the simulated web to serve a URL.
///
/// `Content` shares the host's interned body and header map: constructing a
/// `ServedPage` never copies page text.
#[derive(Debug, Clone, PartialEq)]
pub enum ServedPage {
    /// No host by that name is registered (DNS failure analogue).
    NoSuchHost,
    /// The host is offline.
    Refused,
    /// The host exists but does not speak TLS, and an https URL was used.
    TlsUnavailable,
    /// The path is not registered on the host → 404.
    Missing {
        /// Host latency model, used to price the 404.
        latency: LatencyModel,
    },
    /// The path resolved to content.
    Content {
        /// What to serve (interned body; cloning bumped a refcount).
        content: PageContent,
        /// Extra per-path headers, shared with the host's definition.
        extra_headers: Option<Arc<HeaderMap>>,
        /// Host latency model.
        latency: LatencyModel,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dn(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn register_and_lookup_hosts() {
        let mut web = SimulatedWeb::new();
        assert_eq!(web.host_count(), 0);
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "<html></html>");
        web.register(host);
        assert!(web.has_host(&dn("example.com")));
        assert!(!web.has_host(&dn("other.com")));
        assert_eq!(web.host_count(), 1);
        assert_eq!(web.hosts(), vec![dn("example.com")]);
    }

    #[test]
    fn serve_content_and_missing() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "<html>home</html>");
        host.add_json("/.well-known/related-website-set.json", "{}");
        web.register(host);

        match web.serve(&Url::parse("https://example.com/").unwrap()) {
            ServedPage::Content { content, .. } => {
                assert_eq!(content, PageContent::Html("<html>home</html>".into()));
            }
            other => panic!("expected content, got {other:?}"),
        }
        assert!(matches!(
            web.serve(&Url::parse("https://example.com/missing").unwrap()),
            ServedPage::Missing { .. }
        ));
        assert_eq!(
            web.serve(&Url::parse("https://unknown.com/").unwrap()),
            ServedPage::NoSuchHost
        );
    }

    #[test]
    fn serve_respects_offline_and_http_only() {
        let mut web = SimulatedWeb::new();
        let mut down = SiteHost::new("down.com").unwrap();
        down.add_page("/", "x").set_offline(true);
        web.register(down);
        let mut insecure = SiteHost::new("insecure.com").unwrap();
        insecure.add_page("/", "x").set_http_only(true);
        web.register(insecure);

        assert_eq!(
            web.serve(&Url::parse("https://down.com/").unwrap()),
            ServedPage::Refused
        );
        assert_eq!(
            web.serve(&Url::parse("https://insecure.com/").unwrap()),
            ServedPage::TlsUnavailable
        );
        // Plain http to the http-only host still works.
        assert!(matches!(
            web.serve(&Url::parse("http://insecure.com/").unwrap()),
            ServedPage::Content { .. }
        ));
    }

    #[test]
    fn per_path_headers_are_served() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("svc.example.com").unwrap();
        host.add_page("/", "service");
        host.add_header("/", "X-Robots-Tag", "noindex");
        web.register(host);
        match web.serve(&Url::parse("https://svc.example.com/").unwrap()) {
            ServedPage::Content { extra_headers, .. } => {
                assert!(extra_headers
                    .expect("headers present")
                    .has_token("x-robots-tag", "noindex"));
            }
            other => panic!("expected content, got {other:?}"),
        }
    }

    #[test]
    fn served_headers_share_the_hosts_map() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("svc.example.com").unwrap();
        host.add_page("/", "service");
        host.add_header("/", "X-Robots-Tag", "noindex");
        web.register(host);
        let url = Url::parse("https://svc.example.com/").unwrap();
        let (a, b) = match (web.serve(&url), web.serve(&url)) {
            (
                ServedPage::Content {
                    extra_headers: Some(a),
                    ..
                },
                ServedPage::Content {
                    extra_headers: Some(b),
                    ..
                },
            ) => (a, b),
            other => panic!("expected two content serves, got {other:?}"),
        };
        // Two serves hand out the same shared map, not two copies.
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn update_host_mutates_in_place() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "x");
        web.register(host);
        assert!(web.update_host(&dn("example.com"), |h| {
            h.set_offline(true);
        }));
        assert_eq!(
            web.serve(&Url::parse("https://example.com/").unwrap()),
            ServedPage::Refused
        );
        assert!(!web.update_host(&dn("missing.com"), |_| {}));
    }

    #[test]
    fn cloned_web_shares_state() {
        let mut web = SimulatedWeb::new();
        let clone = web.clone();
        let mut host = SiteHost::new("shared.com").unwrap();
        host.add_page("/", "x");
        web.register(host);
        assert!(clone.has_host(&dn("shared.com")));
    }

    #[test]
    fn freeze_produces_lock_free_equivalent_reads() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "<html>frozen home</html>");
        host.add_header("/", "X-Robots-Tag", "noindex");
        web.register(host);
        let url = Url::parse("https://example.com/").unwrap();
        let before = web.serve(&url);
        let frozen = web.freeze();
        assert_eq!(frozen.serve(&url), before);
        assert_eq!(web.serve(&url), before);
        assert_eq!(frozen.host_count(), 1);
        assert_eq!(frozen.hosts(), web.hosts());
        assert_eq!(
            frozen.page_html(&dn("example.com"), "/"),
            Some("<html>frozen home</html>")
        );
        assert!(frozen.page_html(&dn("example.com"), "/missing").is_none());
        assert!(frozen.page_html(&dn("missing.com"), "/").is_none());
    }

    #[test]
    fn served_body_is_a_refcount_bump_of_the_interned_page() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "<html>interned</html>");
        web.register(host);
        let frozen = web.freeze();
        let url = Url::parse("https://example.com/").unwrap();
        let interned_ptr = frozen
            .page_body(&dn("example.com"), "/")
            .unwrap()
            .as_bytes()
            .as_ptr();
        match frozen.serve(&url) {
            ServedPage::Content { content, .. } => {
                let body = content.body().unwrap();
                assert_eq!(body.as_bytes().as_ptr(), interned_ptr, "body was copied");
            }
            other => panic!("expected content, got {other:?}"),
        }
    }

    #[test]
    fn post_freeze_writes_go_to_the_overlay_and_spare_the_snapshot() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "stable");
        web.register(host);
        let frozen = web.freeze();

        // A new host lands in the overlay: visible through the web, not the
        // earlier snapshot.
        let mut late = SiteHost::new("late.com").unwrap();
        late.add_page("/", "late");
        web.register(late);
        assert!(web.has_host(&dn("late.com")));
        assert!(!frozen.has_host(&dn("late.com")));
        assert_eq!(web.host_count(), 2);

        // A copy-on-write mutation of a frozen host: the web serves the new
        // behaviour, the snapshot keeps the original.
        assert!(web.update_host(&dn("example.com"), |h| {
            h.set_offline(true);
        }));
        let url = Url::parse("https://example.com/").unwrap();
        assert_eq!(web.serve(&url), ServedPage::Refused);
        assert!(matches!(frozen.serve(&url), ServedPage::Content { .. }));

        // Re-freezing folds the overlay in.
        let refrozen = web.freeze();
        assert_eq!(refrozen.host_count(), 2);
        assert_eq!(refrozen.serve(&url), ServedPage::Refused);
    }

    #[test]
    fn frozen_to_web_round_trip() {
        let mut web = SimulatedWeb::new();
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/", "x");
        web.register(host);
        let frozen = web.freeze();
        let mut view = frozen.to_web();
        assert!(view.has_host(&dn("example.com")));
        // Writes to the view do not disturb the snapshot.
        view.update_host(&dn("example.com"), |h| {
            h.set_offline(true);
        });
        assert!(!frozen.host(&dn("example.com")).unwrap().is_offline());
    }

    /// A frozen two-host snapshot, and the URLs the unwritten-web tests
    /// read.
    fn two_host_snapshot() -> (FrozenWeb, Vec<Url>) {
        let mut web = SimulatedWeb::new();
        for name in ["example.com", "other.com"] {
            let mut host = SiteHost::new(name).unwrap();
            host.add_page("/", format!("<html>{name}</html>"));
            host.add_header("/", "X-Robots-Tag", "noindex");
            web.register(host);
        }
        let urls = [
            "https://example.com/",
            "https://other.com/",
            "https://late.com/",
        ]
        .iter()
        .map(|u| Url::parse(u).unwrap())
        .collect();
        (web.freeze(), urls)
    }

    #[test]
    fn writes_through_one_clone_reach_a_fetcher_on_another() {
        let (frozen, urls) = two_host_snapshot();
        let mut writer = frozen.to_web();
        let fetcher = crate::Fetcher::new(writer.clone());
        assert!(fetcher.get(&urls[0]).unwrap().status.is_success());
        assert!(fetcher.get(&urls[2]).is_err());

        assert!(writer.update_host(&dn("example.com"), |h| {
            h.set_offline(true);
        }));
        let mut late = SiteHost::new("late.com").unwrap();
        late.add_page("/", "late");
        writer.register(late);

        assert!(matches!(
            fetcher.get(&urls[0]),
            Err(crate::NetError::ConnectionRefused { .. })
        ));
        assert_eq!(fetcher.get(&urls[2]).unwrap().body_text(), "late");
        assert!(fetcher.web().has_host(&dn("late.com")));
        assert_eq!(fetcher.web().host_count(), 3);
        // The snapshot the web was built over is untouched.
        assert!(matches!(frozen.serve(&urls[0]), ServedPage::Content { .. }));
    }

    #[test]
    fn writes_on_another_thread_are_seen_after_the_join() {
        let (frozen, urls) = two_host_snapshot();
        let web = frozen.to_web();
        let fetcher = crate::Fetcher::new(web.clone());
        assert!(fetcher.get(&urls[1]).unwrap().status.is_success());

        let mut writer = web.clone();
        std::thread::spawn(move || {
            writer.update_host(&dn("other.com"), |h| {
                h.set_offline(true);
            });
            let mut late = SiteHost::new("late.com").unwrap();
            late.add_page("/", "late");
            writer.register(late);
        })
        .join()
        .unwrap();

        assert_eq!(web.serve(&urls[1]), ServedPage::Refused);
        assert!(matches!(
            fetcher.get(&urls[1]),
            Err(crate::NetError::ConnectionRefused { .. })
        ));
        assert_eq!(fetcher.get(&urls[2]).unwrap().body_text(), "late");
    }

    #[test]
    fn freezing_an_unwritten_web_serves_the_same() {
        let (frozen, urls) = two_host_snapshot();
        let expected: Vec<ServedPage> = urls.iter().map(|u| frozen.serve(u)).collect();

        let web = frozen.to_web();
        let refrozen = web.freeze();
        // Nothing was written, so the snapshot comes back as is.
        assert!(refrozen.ptr_eq(&frozen));
        let after: Vec<ServedPage> = urls.iter().map(|u| web.serve(u)).collect();
        assert_eq!(after, expected);

        let sharded_web = frozen.to_web();
        let sharded = sharded_web.freeze_sharded(4);
        assert_eq!(sharded.shard_count(), 4);
        for (url, want) in urls.iter().zip(&expected) {
            assert_eq!(&sharded.serve(url), want);
            assert_eq!(&sharded_web.serve(url), want);
        }
        assert_eq!(sharded_web.hosts(), frozen.hosts());

        // An unwritten web over a sharded store freezes back to the same
        // contents, single or sharded.
        let over_shards = SimulatedWeb::from_sharded(sharded.clone());
        assert!(over_shards.freeze_sharded(4).ptr_eq(&sharded));
        let collapsed = SimulatedWeb::from_sharded(sharded).freeze();
        for (url, want) in urls.iter().zip(&expected) {
            assert_eq!(&collapsed.serve(url), want);
        }
    }

    #[test]
    fn latency_model_prices_body_size() {
        let m = LatencyModel {
            base_ms: 10,
            per_kb_ms: 5,
        };
        assert_eq!(m.latency_for(0), 10);
        assert_eq!(m.latency_for(2048), 20);
        let d = LatencyModel::default();
        assert!(d.latency_for(0) > 0);
    }

    #[test]
    fn site_host_paths_sorted() {
        let mut host = SiteHost::new("example.com").unwrap();
        host.add_page("/b", "x").add_page("/a", "y");
        assert_eq!(host.paths(), vec!["/a", "/b"]);
        assert!(host.page("/a").is_some());
        assert!(host.page("/missing").is_none());
    }

    #[test]
    fn page_body_behaves_like_its_text() {
        let body = PageBody::from("héllo <b>world</b>");
        assert_eq!(body.as_str(), "héllo <b>world</b>");
        assert_eq!(body, "héllo <b>world</b>");
        assert_eq!(body.len(), "héllo <b>world</b>".len());
        assert!(!body.is_empty());
        assert!(PageBody::default().is_empty());
        assert_eq!(format!("{body}"), "héllo <b>world</b>");
        assert_eq!(format!("{body:?}"), format!("{:?}", "héllo <b>world</b>"));
        // Clones share the buffer.
        let clone = body.clone();
        assert_eq!(clone.as_bytes().as_ptr(), body.as_bytes().as_ptr());
        // bytes() shares it too.
        assert_eq!(body.bytes().as_ptr(), body.as_bytes().as_ptr());
    }

    #[test]
    fn page_body_rejects_non_utf8_bytes() {
        // The only constructor that can admit raw bytes checks them; the
        // `str`/`String` constructors are valid by their argument types.
        assert!(PageBody::from_utf8(Bytes::from_static(b"\xFF\xFEbad")).is_none());
        // A lone continuation byte is also rejected.
        assert!(PageBody::from_utf8(Bytes::from_static(b"ok \x80")).is_none());
        let ok = PageBody::from_utf8(Bytes::from_static("héllo".as_bytes())).unwrap();
        assert_eq!(ok.as_str(), "héllo");
    }

    #[test]
    fn truncated_snaps_to_char_boundaries() {
        let body = PageBody::from("héllo"); // 'é' spans bytes 1..3
        assert_eq!(body.truncated(2).as_str(), "h"); // mid-'é' snaps down
        assert_eq!(body.truncated(3).as_str(), "hé");
        assert_eq!(body.truncated(0).as_str(), "");
        // At or past the length: shared, not copied.
        let full = body.truncated(body.len());
        assert_eq!(full.as_bytes().as_ptr(), body.as_bytes().as_ptr());
        let past = body.truncated(body.len() + 10);
        assert_eq!(past.as_str(), "héllo");
        // The result is always valid UTF-8 at every cut point.
        for cut in 0..=body.len() {
            let t = body.truncated(cut);
            assert!(std::str::from_utf8(t.as_bytes()).is_ok());
            assert!(t.len() <= cut);
        }
    }
}
