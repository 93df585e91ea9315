import checks

REFERENCE = """surveyed 3 top-group domains: 66.7% any activation
Crawl health
metric             count  share
-----------------  -----  ------
visited            1050
success            944    89.9%
failed             76     7.2%
attempts total     1,254
mean latency (ms)  0.000
"""


def test_survey_checker_flags_an_altered_output():
    assert checks.survey_output_ok(REFERENCE, REFERENCE)
    assert not checks.survey_output_ok(REFERENCE.replace("944", "945"),
                                       REFERENCE)
    assert not checks.survey_output_ok(REFERENCE + "\n", REFERENCE)
    assert not checks.survey_output_ok("", "")


def test_crawl_health_rows_are_read_as_counts():
    rows = checks.crawl_health(REFERENCE)
    assert rows["visited"] == 1050
    assert rows["failed"] == 76
    assert rows["attempts total"] == 1254


def _oracle():
    from repro.filters.engine import EngineSnapshot
    from repro.filters.filterlist import parse_filter_list
    from repro.serve import protocol

    snapshot = EngineSnapshot.build([parse_filter_list(
        "||ads.example^", name="easylist")])
    return checks.ParityOracle(snapshot, protocol), protocol, snapshot


def test_parity_checker_flags_an_altered_response():
    oracle, protocol, snapshot = _oracle()
    body = (b'{"url": "http://ads.example/x.js", "content_type": "script",'
            b' "page_host": "news.example", "request_host": "ads.example"}')
    _, payload = protocol.serve_match(snapshot,
                                      protocol.parse_match_payload(body))
    good = protocol.encode(payload)
    assert b'"verdict":"block"' in good
    assert oracle.ok(200, body, good)
    assert not oracle.ok(200, body, good.replace(b"block", b"allow"))
    assert not oracle.ok(429, body, good)
    exchanges = [(200, body, good), (200, body, good[:-1])]
    assert checks.count_mismatches(exchanges, oracle.ok) == 1
