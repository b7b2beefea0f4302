//! `Fetcher::exchange_with` against a reference fetch loop.
//!
//! The reference below is the response-building fetch loop `get_with`
//! and the session-aware HEAD ran before the exchange path existed,
//! written out here against the public serving API. Over arbitrary webs
//! (relative, absolute, looping and malformed redirects, error pages
//! answering 3xx with and without a `Location` header, offline, http-only
//! and unregistered hosts, deadlines) and under no injector as well as a
//! storm with `RetryPolicy::standard()`, every exchange must project to
//! the same (status, latency, redirects, final URL, error, attempts,
//! backoff) as the reference, issue the same wire requests, and leave its
//! session in the same state. `get_with` and the session-less `get`/`head`
//! must still return the reference's full `Response`.

use proptest::prelude::*;
use rws_domain::DomainName;
use rws_net::{
    Exchange, FaultInjector, FaultPlan, FaultScale, FetchOutcome, FetchPolicy, FetchSession,
    Fetcher, HeaderMap, LatencyModel, Method, NetError, PageContent, Response, RetryPolicy,
    ServedPage, SimulatedWeb, SiteHost, StatusCode, Url,
};
use rws_stats::{Rng, Xoshiro256StarStar};

/// Hosts every generated web names; the last one is never registered.
const HOSTS: [&str; 5] = [
    "alpha.example",
    "beta.example",
    "gamma.example",
    "delta.example",
    "ghost.example",
];
const PATHS: [&str; 5] = ["/", "/a", "/b", "/c", "/loop"];

/// One attempt of the reference fetch loop. `hops` counts wire requests.
fn reference_once(
    fetcher: &Fetcher,
    injector: Option<&FaultInjector>,
    method: Method,
    start: &Url,
    mut session: Option<&mut FetchSession>,
    hops: &mut usize,
) -> Result<Response, NetError> {
    let policy = fetcher.policy();
    let mut current = start.clone();
    let mut total_latency: u64 = 0;
    let mut redirects = 0usize;
    loop {
        if policy.require_https && !current.is_https() {
            return Err(NetError::HttpsRequired {
                url: current.to_string(),
            });
        }
        *hops += 1;
        let served = match (injector, session.as_deref_mut()) {
            (Some(injector), Some(session)) => {
                let ordinal = session.next_ordinal(&current.host);
                injector.apply(&current, ordinal, fetcher.web().serve(&current))
            }
            _ => fetcher.web().serve(&current),
        };
        let (status, mut headers, body, latency) = match served {
            ServedPage::NoSuchHost => {
                return Err(NetError::HostNotFound {
                    host: current.host.to_string(),
                })
            }
            ServedPage::Refused | ServedPage::TlsUnavailable => {
                return Err(NetError::ConnectionRefused {
                    host: current.host.to_string(),
                })
            }
            ServedPage::Missing { latency } => (
                StatusCode::NOT_FOUND,
                HeaderMap::new(),
                Vec::new(),
                latency.latency_for(0),
            ),
            ServedPage::Content {
                content,
                extra_headers,
                latency,
            } => {
                let mut h = extra_headers
                    .map(|shared| HeaderMap::clone(&shared))
                    .unwrap_or_default();
                match content {
                    PageContent::Html(b) => {
                        h.set("Content-Type", "text/html; charset=utf-8");
                        (
                            StatusCode::OK,
                            h,
                            b.as_bytes().to_vec(),
                            latency.latency_for(b.len()),
                        )
                    }
                    PageContent::Json(b) => {
                        h.set("Content-Type", "application/json");
                        (
                            StatusCode::OK,
                            h,
                            b.as_bytes().to_vec(),
                            latency.latency_for(b.len()),
                        )
                    }
                    PageContent::Text(b) => {
                        h.set("Content-Type", "text/plain; charset=utf-8");
                        (
                            StatusCode::OK,
                            h,
                            b.as_bytes().to_vec(),
                            latency.latency_for(b.len()),
                        )
                    }
                    PageContent::Redirect {
                        location,
                        permanent,
                    } => {
                        let status = if permanent {
                            StatusCode::MOVED_PERMANENTLY
                        } else {
                            StatusCode::FOUND
                        };
                        h.set("Location", location);
                        (status, h, Vec::new(), latency.latency_for(0))
                    }
                    PageContent::Error { status, body } => {
                        let lat = latency.latency_for(body.len());
                        (status, h, body.as_bytes().to_vec(), lat)
                    }
                }
            }
        };
        total_latency += latency;
        if total_latency > policy.deadline_ms {
            return Err(NetError::Timeout {
                start: start.to_string(),
                url: current.to_string(),
                latency_ms: total_latency,
                deadline_ms: policy.deadline_ms,
                redirects_followed: redirects,
            });
        }
        if status.is_redirect() {
            if redirects >= policy.max_redirects {
                return Err(NetError::TooManyRedirects {
                    start: start.to_string(),
                    limit: policy.max_redirects,
                });
            }
            let location = headers.get("location").unwrap_or("/").to_string();
            current = current.join(&location)?;
            redirects += 1;
            continue;
        }
        let body = if method == Method::Head {
            headers.set("Content-Length", body.len().to_string());
            Vec::new()
        } else {
            body
        };
        return Ok(Response {
            url: current,
            status,
            headers,
            body: body.into(),
            latency_ms: total_latency,
            redirects_followed: redirects,
        });
    }
}

type Projection = (u32, u64, Result<(StatusCode, u64, usize, Url), NetError>);

fn project_response(outcome: FetchOutcome<Response>) -> Projection {
    (
        outcome.attempts,
        outcome.backoff_ms,
        outcome
            .result
            .map(|r| (r.status, r.latency_ms, r.redirects_followed, r.url)),
    )
}

fn project_exchange(start: &Url, outcome: FetchOutcome<Exchange>) -> Projection {
    (
        outcome.attempts,
        outcome.backoff_ms,
        outcome.result.map(|x| {
            if x.landing.is_some() {
                assert!(x.redirects_followed > 0, "landing set without a redirect");
            }
            (
                x.status,
                x.latency_ms,
                x.redirects_followed,
                x.landing.unwrap_or_else(|| start.clone()),
            )
        }),
    )
}

/// A redirect target drawn from every shape the fetcher must handle.
fn location(rng: &mut Xoshiro256StarStar) -> String {
    let path = PATHS[rng.range_usize(0, PATHS.len())];
    let host = HOSTS[rng.range_usize(0, HOSTS.len())];
    match rng.range_usize(0, 5) {
        0 | 1 => path.to_string(),
        2 => format!("https://{host}{path}"),
        3 => format!("http://{host}{path}?via=1"),
        _ => "no-leading-slash".to_string(),
    }
}

/// A random web over [`HOSTS`] (all but the last registered).
fn arbitrary_web(seed: u64) -> SimulatedWeb {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut web = SimulatedWeb::new();
    for name in &HOSTS[..HOSTS.len() - 1] {
        let mut host = SiteHost::new(name).unwrap();
        host.set_offline(rng.chance(0.1))
            .set_http_only(rng.chance(0.15))
            .set_latency(LatencyModel {
                base_ms: if rng.chance(0.1) {
                    12_000
                } else {
                    rng.range_u64(1, 200)
                },
                per_kb_ms: rng.range_u64(0, 5),
            });
        for path in PATHS {
            let body = "x".repeat(rng.range_usize(0, 3000));
            let content = match rng.range_usize(0, 9) {
                0 => continue,
                1 => PageContent::Html(body.into()),
                2 => PageContent::Json(body.into()),
                3 => PageContent::Text(body.into()),
                4 | 5 => PageContent::Redirect {
                    location: location(&mut rng),
                    permanent: rng.chance(0.5),
                },
                6 => PageContent::Redirect {
                    location: path.to_string(),
                    permanent: false,
                },
                _ => PageContent::Error {
                    status: StatusCode([301, 302, 307, 404, 410, 500, 503][rng.range_usize(0, 7)]),
                    body: body.into(),
                },
            };
            host.add_content(path, content);
            if rng.chance(0.4) {
                host.add_header(path, "Location", &location(&mut rng));
            }
            if rng.chance(0.3) {
                host.add_header(path, "X-Robots-Tag", "noindex");
            }
        }
        web.register(host);
    }
    web
}

/// Every start URL the generated webs can be asked for.
fn start_urls() -> Vec<Url> {
    let mut urls = Vec::new();
    for host in HOSTS {
        for path in PATHS {
            urls.push(Url::parse(&format!("https://{host}{path}")).unwrap());
            urls.push(Url::parse(&format!("http://{host}{path}")).unwrap());
        }
    }
    urls
}

/// Drive the same request sequence through `exchange_with`, `get_with`
/// (GETs only) and the reference on twin sessions, and compare them all.
fn check_web(web: &SimulatedWeb, policy: FetchPolicy, storm: Option<u64>, order_seed: u64) {
    let retry = if storm.is_some() {
        RetryPolicy::standard()
    } else {
        RetryPolicy::none()
    };
    let build = || {
        let fetcher = Fetcher::with_policy(web.clone(), policy).with_retry(retry);
        match storm {
            Some(seed) => fetcher.with_fault_injector(FaultInjector::new(FaultPlan::new(
                seed,
                FaultScale::storm(),
            ))),
            None => fetcher,
        }
    };
    let injector = storm.map(|seed| FaultInjector::new(FaultPlan::new(seed, FaultScale::storm())));
    let (exchanger, getter, reference) = (build(), build(), build());
    let mut sessions = [
        FetchSession::new(order_seed, "twin"),
        FetchSession::new(order_seed, "twin"),
        FetchSession::new(order_seed, "twin"),
    ];
    // Wire requests the reference made for the sessioned requests, for the
    // HEADs the `get_with` lane borrowed it for, and for the session-less
    // calls.
    let mut reference_hops = 0usize;
    let mut getter_hops = 0usize;
    let mut plain_hops = 0usize;

    let urls = start_urls();
    let mut rng = Xoshiro256StarStar::new(order_seed);
    for _ in 0..80 {
        let url = &urls[rng.range_usize(0, urls.len())];
        let method = if rng.chance(0.3) {
            Method::Head
        } else {
            Method::Get
        };
        let [ex_session, get_session, ref_session] = &mut sessions;

        let expected = reference.retrying(ref_session, |f, s| {
            reference_once(
                f,
                injector.as_ref(),
                method,
                url,
                Some(s),
                &mut reference_hops,
            )
        });
        let exchanged = exchanger.exchange_with(method, url, ex_session);
        assert_eq!(
            project_exchange(url, exchanged),
            project_response(expected.clone()),
            "{method} {url}"
        );

        // Keep the get_with session in lockstep: it issues the same
        // requests, HEADs through the reference.
        if method == Method::Get {
            let got = getter.get_with(url, get_session);
            assert_eq!(got, expected, "get_with {url}");
        } else {
            getter.retrying(get_session, |f, s| {
                reference_once(f, injector.as_ref(), method, url, Some(s), &mut getter_hops)
            });
        }

        // Session-less entry points: never faulted, never retried.
        let plain = reference_once(&reference, None, method, url, None, &mut plain_hops);
        let served = match method {
            Method::Get => reference.get(url),
            Method::Head => reference.head(url),
        };
        assert_eq!(served, plain, "session-less {method} {url}");
    }

    assert_eq!(exchanger.requests_issued(), reference_hops);
    assert_eq!(getter.requests_issued() + getter_hops, reference_hops);
    assert_eq!(reference.requests_issued(), plain_hops);

    // The twin sessions end in the same state: retry budget, per-host
    // ordinals and the jitter stream (probed by one more failing ladder).
    let [a, b, c] = &mut sessions;
    assert_eq!(a.retries_spent(), c.retries_spent());
    assert_eq!(b.retries_spent(), c.retries_spent());
    for host in HOSTS {
        let host = DomainName::parse(host).unwrap();
        let ordinal = c.next_ordinal(&host);
        assert_eq!(a.next_ordinal(&host), ordinal, "{host}");
        assert_eq!(b.next_ordinal(&host), ordinal, "{host}");
    }
    let probe = Fetcher::new(SimulatedWeb::new()).with_retry(RetryPolicy::standard());
    let ladder = |s: &mut FetchSession| {
        probe.retrying(s, |_, _| -> Result<(), NetError> {
            Err(NetError::ConnectionRefused {
                host: "probe.example".to_string(),
            })
        })
    };
    let expected = ladder(c);
    assert_eq!(ladder(a), expected);
    assert_eq!(ladder(b), expected);
}

proptest! {
    /// Arbitrary webs, default and strict policies, no injector.
    #[test]
    fn exchange_matches_the_reference_unfaulted(web_seed in any::<u64>(), order_seed in any::<u64>(), strict in any::<bool>()) {
        let policy = if strict { FetchPolicy::strict() } else { FetchPolicy::default() };
        check_web(&arbitrary_web(web_seed), policy, None, order_seed);
    }

    /// Arbitrary webs under a fault storm with standard retries.
    #[test]
    fn exchange_matches_the_reference_under_a_storm(web_seed in any::<u64>(), order_seed in any::<u64>(), plan_seed in any::<u64>(), strict in any::<bool>()) {
        let policy = if strict { FetchPolicy::strict() } else { FetchPolicy::default() };
        check_web(&arbitrary_web(web_seed), policy, Some(plan_seed), order_seed);
    }
}

/// One web holding every shape the exchange path special-cases, so each
/// is covered whatever the random webs draw.
#[test]
fn exchange_matches_the_reference_on_every_special_case() {
    let mut web = SimulatedWeb::new();
    let mut alpha = SiteHost::new("alpha.example").unwrap();
    alpha
        .add_page("/", "<html>home</html>")
        .add_content(
            "/a",
            PageContent::Redirect {
                location: "/".to_string(),
                permanent: true,
            },
        )
        .add_content(
            "/b",
            PageContent::Redirect {
                location: "https://beta.example/".to_string(),
                permanent: false,
            },
        )
        .add_content(
            "/loop",
            PageContent::Redirect {
                location: "/loop".to_string(),
                permanent: false,
            },
        )
        // An error page answering 3xx: its target is the Location extra
        // header when there is one, `/` otherwise.
        .add_content(
            "/c",
            PageContent::Error {
                status: StatusCode(307),
                body: "moved".into(),
            },
        )
        .add_header("/c", "Location", "http://gamma.example/a");
    // A redirect page's own location wins over a Location extra header.
    alpha.add_header("/a", "Location", "/elsewhere");
    web.register(alpha);
    let mut beta = SiteHost::new("beta.example").unwrap();
    beta.add_content(
        "/",
        PageContent::Error {
            status: StatusCode::FOUND,
            body: "".into(),
        },
    )
    .add_content(
        "/a",
        PageContent::Redirect {
            location: "http://gamma.example/".to_string(),
            permanent: true,
        },
    )
    .add_page("/b", "b");
    web.register(beta);
    let mut gamma = SiteHost::new("gamma.example").unwrap();
    gamma
        .add_page("/", "g")
        .add_page("/a", "ga")
        .set_http_only(true);
    web.register(gamma);
    let mut delta = SiteHost::new("delta.example").unwrap();
    delta.add_page("/", "d").set_offline(true);
    web.register(delta);

    for policy in [FetchPolicy::default(), FetchPolicy::strict()] {
        for order_seed in 0..6 {
            check_web(&web, policy, None, order_seed);
            check_web(&web, policy, Some(order_seed ^ 0x5EED), order_seed);
        }
    }

    // The special cases land where the header lookup sent them.
    let fetcher = Fetcher::new(web);
    let mut session = FetchSession::new(1, "cases");
    let land = |path: &str, session: &mut FetchSession| {
        let url = Url::parse(&format!("https://alpha.example{path}")).unwrap();
        fetcher.exchange_with(Method::Get, &url, session).result
    };
    let home = land("/", &mut session).unwrap();
    assert_eq!(
        (home.status, home.redirects_followed, home.landing),
        (StatusCode::OK, 0, None)
    );
    let moved = land("/a", &mut session).unwrap();
    assert_eq!(
        moved.landing,
        Some(Url::parse("https://alpha.example/").unwrap())
    );
    let via_error = land("/c", &mut session).unwrap();
    assert_eq!(
        via_error.landing,
        Some(Url::parse("http://gamma.example/a").unwrap())
    );
    assert_eq!(via_error.redirects_followed, 1);
    assert!(matches!(
        land("/loop", &mut session),
        Err(NetError::TooManyRedirects { .. })
    ));
}
