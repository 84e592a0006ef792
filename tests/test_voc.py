import re

import numpy as np
import pytest

from raildet.evaluation import CLASS_NAMES, GroundTruthObject
from raildet.geometry import BBox
from raildet.voc import (
    Annotation,
    VocParseError,
    VocSchemaError,
    VocVocabularyError,
    parse_voc,
    read_voc,
    write_voc,
)

MINIMAL = b"""<annotation>
  <filename>img1.ppm</filename>
  <size><width>800</width><height>1000</height></size>
  <object>
    <name>WJ-8</name>
    <bndbox><xmin>100</xmin><ymin>200</ymin><xmax>180</xmax><ymax>320</ymax></bndbox>
  </object>
</annotation>
"""


def test_minimal_file():
    ann = parse_voc(MINIMAL)
    assert ann.image_filename == "img1.ppm"
    assert ann.image_width == 800
    assert ann.image_height == 1000
    assert len(ann.objects) == 1
    obj = ann.objects[0]
    assert obj.class_name == "WJ-8"
    assert obj.box == BBox(100, 200, 180, 320)


def test_zero_objects():
    ann = parse_voc(
        b"<annotation><size><width>10</width><height>10</height></size></annotation>"
    )
    assert ann.objects == ()


def test_unknown_elements_ignored():
    xml = MINIMAL.replace(b"</annotation>", b"<segmented>0</segmented></annotation>")
    assert len(parse_voc(xml).objects) == 1


def test_malformed_xml_reports_offset():
    bad = MINIMAL[:-15]  # truncate the closing tag
    with pytest.raises(VocParseError) as e:
        parse_voc(bad)
    assert e.value.byte_offset >= 0
    assert "byte offset" in str(e.value)


def test_missing_size_is_schema_error():
    with pytest.raises(VocSchemaError):
        parse_voc(b"<annotation><filename>x</filename></annotation>")


def test_non_numeric_coordinate():
    xml = MINIMAL.replace(b"<xmin>100</xmin>", b"<xmin>left</xmin>")
    with pytest.raises(VocSchemaError):
        parse_voc(xml)


@pytest.mark.parametrize("text", [b"nan", b"inf", b"-inf", b"1e999"])
@pytest.mark.parametrize("element", [b"xmin", b"ymax", b"width"])
def test_non_finite_number_is_schema_error(element, text):
    xml = re.sub(b"<%s>[^<]*<" % element, b"<%s>%s<" % (element, text), MINIMAL)
    with pytest.raises(VocSchemaError, match="finite"):
        parse_voc(xml)


def test_read_voc_names_the_file_and_keeps_the_error_type(tmp_path):
    path = tmp_path / "a.xml"
    path.write_bytes(MINIMAL)
    assert read_voc(path) == parse_voc(MINIMAL)
    path.write_bytes(MINIMAL[:-15])
    with pytest.raises(VocParseError, match=r"a\.xml: .*byte offset") as e:
        read_voc(path)
    assert e.value.byte_offset >= 0
    with pytest.raises(FileNotFoundError, match="b.xml"):
        read_voc(tmp_path / "b.xml")


def test_inverted_box_is_schema_error():
    xml = MINIMAL.replace(b"<xmin>100</xmin>", b"<xmin>500</xmin>")
    with pytest.raises(VocSchemaError):
        parse_voc(xml)


def test_wrong_root():
    with pytest.raises(VocSchemaError):
        parse_voc(b"<root><size><width>1</width><height>1</height></size></root>")


def test_unknown_class_strict():
    xml = MINIMAL.replace(b"WJ-8", b"WJ-9")
    with pytest.raises(VocVocabularyError):
        parse_voc(xml)


def test_unknown_class_lenient_skips_with_warning(tmp_path, capsys):
    path = tmp_path / "a.xml"
    path.write_bytes(MINIMAL.replace(b"WJ-8", b"WJ-9"))
    assert read_voc(path, lenient=True).objects == ()
    assert capsys.readouterr().err == f"{path}: skipping object with unknown class 'WJ-9'\n"
    skipped = []
    assert parse_voc(path.read_bytes(), skipped).objects == ()
    assert skipped == ["WJ-9"]


def _random_annotation(rng):
    objects = []
    for _ in range(int(rng.integers(0, 6))):
        cls = CLASS_NAMES[int(rng.integers(4))]
        x0, y0 = rng.uniform(0, 700, 2)
        w, h = rng.uniform(1, 90, 2)
        objects.append(GroundTruthObject(class_name=cls, box=BBox(x0, y0, x0 + w, y0 + h)))
    return Annotation(
        image_filename=f"img_{int(rng.integers(10000))}.ppm",
        image_width=800,
        image_height=1000,
        objects=tuple(objects),
    )


def test_round_trip_random():
    rng = np.random.default_rng(28)
    for _ in range(100):
        ann = _random_annotation(rng)
        assert parse_voc(write_voc(ann)) == ann


def test_round_trip_fractional_coordinates():
    ann = Annotation(
        image_filename="f.ppm",
        image_width=800,
        image_height=1000,
        objects=(
            GroundTruthObject("V", BBox(0.1, 0.2, 10.333333333333334, 99.99999999999999)),
        ),
    )
    assert parse_voc(write_voc(ann)) == ann


def test_empty_object_list_round_trip():
    ann = Annotation(image_filename="e.ppm", image_width=800, image_height=1000)
    out = write_voc(ann)
    assert b"<object>" not in out
    assert parse_voc(out) == ann
