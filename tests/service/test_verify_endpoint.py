"""``POST /deobfuscate?verify=1`` and the verdict metrics."""

from tests.service.test_service import get, metric_value, post

OBFUSCATED = "I`E`X ('wri'+'te-host hi')"


class TestVerifyOverHTTP:
    def test_query_parameter_attaches_verdict(self, served):
        service, url = served(jobs=1)
        import json
        import urllib.request

        request = urllib.request.Request(
            url + "/deobfuscate?verify=1",
            data=json.dumps({"script": OBFUSCATED}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            assert response.status == 200
            record = json.loads(response.read())
        assert record["verify"]["verdict"] == "equivalent"
        assert record["status"] == "ok"

    def test_body_flag_attaches_verdict(self, served):
        service, url = served(jobs=1)
        status, record, _ = post(
            url, {"script": OBFUSCATED, "verify": True}
        )
        assert status == 200
        assert record["verify"]["verdict"] == "equivalent"

    def test_unverified_requests_carry_no_verdict(self, served):
        service, url = served(jobs=1)
        status, record, _ = post(url, {"script": OBFUSCATED})
        assert status == 200
        assert "verify" not in record

    def test_metrics_count_verdicts(self, served):
        service, url = served(jobs=1)
        post(url, {"script": OBFUSCATED, "verify": True})
        status, metrics = get(url, "/metrics")
        assert status == 200
        assert metric_value(
            metrics,
            'repro_service_verify_verdicts_total{verdict="equivalent"}',
        ) == 1.0

    def test_verify_and_plain_results_do_not_mix(self, served):
        service, url = served(jobs=1)
        _, verified, _ = post(url, {"script": OBFUSCATED, "verify": True})
        _, plain, _ = post(url, {"script": OBFUSCATED})
        assert verified["cache_key"] != plain["cache_key"]
        assert not plain["cache_hit"]
        # resubmitting each form hits its own cache entry
        _, again, _ = post(url, {"script": OBFUSCATED, "verify": True})
        assert again["cache_hit"] and again["verify"]["verdict"]
