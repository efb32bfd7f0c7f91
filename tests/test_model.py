"""Domain types: deployments, scans, signatures and their text forms."""

import pytest

from apseq.model import (
    ApDeployment,
    deployment_from_text,
    deployment_to_text,
    load_deployment,
    parse_signature,
    save_deployment,
    signature_to_text,
    subset_key,
)


@pytest.fixture
def deployment():
    return ApDeployment(
        width=20.0,
        height=10.0,
        aps=((1, 2.0, 2.0), (2, 18.0, 3.0), (3, 9.0, 9.0)),
    )


class TestApDeployment:
    def test_basic_accessors(self, deployment):
        assert deployment.n_aps == 3
        assert deployment.ap_ids == (1, 2, 3)
        assert deployment.position(2) == (18.0, 3.0)

    def test_ids_sorted_regardless_of_input_order(self):
        dep = ApDeployment(width=5.0, height=5.0, aps=((7, 1.0, 1.0), (2, 3.0, 3.0)))
        assert dep.ap_ids == (2, 7)

    def test_coordinates_quantized_to_six_decimals(self):
        dep = ApDeployment(width=10.0, height=10.0, aps=((1, 1.0 / 3.0, 0.1 + 0.2), (2, 5.0, 5.0)))
        assert dep.position(1) == (0.333333, 0.3)

    @pytest.mark.parametrize(
        "aps, message",
        [
            (((1, 1.0, 1.0),), "at least 2"),
            (((1, 1.0, 1.0), (1, 2.0, 2.0)), "duplicate"),
            (((0, 1.0, 1.0), (2, 2.0, 2.0)), "positive"),
            (((1, -0.5, 1.0), (2, 2.0, 2.0)), "outside"),
            (((1, 1.0, 11.0), (2, 2.0, 2.0)), "outside"),
        ],
    )
    def test_invalid_deployments_rejected(self, aps, message):
        with pytest.raises(ValueError, match=message):
            ApDeployment(width=10.0, height=10.0, aps=aps)

    def test_boundary_positions_allowed(self):
        dep = ApDeployment(width=10.0, height=10.0, aps=((1, 0.0, 0.0), (2, 10.0, 10.0)))
        assert dep.n_aps == 2


class TestSubsetKey:
    def test_sorts_ascending(self):
        assert subset_key([3, 1, 2]) == (1, 2, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            subset_key([1, 2, 2])

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            subset_key([4])


class TestSignatureText:
    @pytest.mark.parametrize("sig", [(1, 3, 2), (10, 2), (7, 6, 5, 4, 3, 2, 1)])
    def test_round_trip(self, sig):
        assert parse_signature(signature_to_text(sig)) == sig

    def test_format_is_dash_joined(self):
        assert signature_to_text((3, 6, 7, 2)) == "3-6-7-2"

    @pytest.mark.parametrize("text", ["", "1--2", "1-x", "2-2"])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_signature(text)


class TestDeploymentFile:
    def test_round_trip(self, deployment, tmp_path):
        path = tmp_path / "a.deploy"
        save_deployment(deployment, path)
        assert load_deployment(path) == deployment

    def test_text_is_stable(self, deployment):
        text = deployment_to_text(deployment)
        assert text == deployment_to_text(deployment_from_text(text))
        assert text.splitlines()[0] == "APSEQ-DEPLOY v1"
        assert "area 20.000000 10.000000" in text

    def test_ap_lines_in_any_order_parse_equal(self, deployment):
        lines = deployment_to_text(deployment).splitlines()
        shuffled = "\n".join([lines[0], lines[1], lines[4], lines[2], lines[3]]) + "\n"
        parsed = deployment_from_text(shuffled)
        assert parsed == deployment
        assert deployment_to_text(parsed) == deployment_to_text(deployment)

    def test_unsupported_version(self):
        with pytest.raises(ValueError, match="unsupported version"):
            deployment_from_text("APSEQ-DEPLOY v2\narea 5.000000 5.000000\n")

    def test_unknown_line_rejected(self):
        text = "APSEQ-DEPLOY v1\narea 5.000000 5.000000\nbogus 1 2 3\n"
        with pytest.raises(ValueError):
            deployment_from_text(text)

    @pytest.mark.parametrize("area", ["inf 10", "10 inf", "-inf 10", "nan 10"])
    def test_non_finite_area_rejected(self, area):
        text = f"APSEQ-DEPLOY v1\narea {area}\nap 1 1.0 1.0\nap 2 2.0 2.0\n"
        with pytest.raises(ValueError, match="finite, positive width"):
            deployment_from_text(text)

    def test_missing_area_rejected(self):
        with pytest.raises(ValueError):
            deployment_from_text("APSEQ-DEPLOY v1\nap 1 1.000000 1.000000\n")

    # One faulty line per kind of fault: a bad number names the line, a
    # deployment that cannot exist keeps its own message; both name the file.
    @pytest.mark.parametrize("line, message", [
        ("area x 10", r"d\.deploy: malformed area line 'area x 10'$"),
        ("ap 1.5 2 0", r"d\.deploy: malformed ap line 'ap 1\.5 2 0'$"),
        ("ap 1 20 0", r"d\.deploy: AP 1 lies outside the area$"),
        ("area 10", r"d\.deploy: malformed area line 'area 10'$"),
        ("ap 1 2", r"d\.deploy: malformed ap line 'ap 1 2'$"),
    ], ids=["area-number", "ap-id", "ap-outside-area", "area-field-count", "ap-field-count"])
    def test_faults_name_the_file(self, line, message):
        lines = ["APSEQ-DEPLOY v1", "area 10 10", "ap 2 1 1", "ap 3 2 2"]
        lines[1 if line.startswith("area") else 2] = line
        with pytest.raises(ValueError, match=message):
            deployment_from_text("\n".join(lines) + "\n", source="d.deploy")
