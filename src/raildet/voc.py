"""PASCAL VOC XML annotation parsing and writing.

The schema uses exactly the element names annotation, size/{width,height},
object/{name,bndbox/{xmin,ymin,xmax,ymax}}.  Unknown elements (pose,
truncated, ...) are ignored in both modes; unknown class names are a hard
error in strict mode and skipped in lenient mode, each with one stderr line
naming the file and the class.
"""
from __future__ import annotations

import math
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from xml.dom import minidom

from .evaluation import CLASS_NAMES, GroundTruthObject
from .geometry import BBox


class VocError(Exception):
    """Base class for VOC annotation errors."""


class VocParseError(VocError):
    """Malformed XML; carries the byte offset of the failure."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


class VocSchemaError(VocError):
    """Well-formed XML missing a required element or violating box rules."""


class VocVocabularyError(VocError):
    """Object class name outside the fastener vocabulary."""


@dataclass(frozen=True)
class Annotation:
    image_filename: str
    image_width: float
    image_height: float
    objects: tuple[GroundTruthObject, ...] = field(default_factory=tuple)


def _require(parent: ET.Element, name: str) -> ET.Element:
    child = parent.find(name)
    if child is None:
        raise VocSchemaError(f"missing required element: {name}")
    return child


def _number(parent: ET.Element, name: str) -> float:
    el = _require(parent, name)
    try:
        x = float(el.text)
    except (TypeError, ValueError):
        raise VocSchemaError(f"element {name} must contain a number, got {el.text!r}")
    if not math.isfinite(x):
        raise VocSchemaError(f"element {name} must contain a finite number, got {el.text!r}")
    return x


def parse_voc(xml_bytes: bytes, skipped: list | None = None) -> Annotation:
    """Parse one VOC annotation file.

    Sizes and coordinates are read as finite reals.  An object of unknown
    class is a :class:`VocVocabularyError`; given a ``skipped`` list, the
    object is left out instead and its class name appended to the list.
    """
    try:
        root = ET.fromstring(xml_bytes)
    except ET.ParseError as e:
        line, col = e.position
        offset = sum(len(ln) + 1 for ln in xml_bytes.split(b"\n")[: line - 1]) + col
        raise VocParseError(str(e), offset) from e
    if root.tag != "annotation":
        raise VocSchemaError(f"root element must be annotation, got {root.tag}")

    filename_el = root.find("filename")
    filename = filename_el.text if filename_el is not None and filename_el.text else ""
    size = _require(root, "size")
    width = _number(size, "width")
    height = _number(size, "height")

    objects = []
    for obj in root.findall("object"):
        name = _require(obj, "name").text
        if name not in CLASS_NAMES:
            if skipped is not None:
                skipped.append(name)
                continue
            raise VocVocabularyError(
                f"unknown class {name!r}; expected one of {', '.join(CLASS_NAMES)}"
            )
        bnd = _require(obj, "bndbox")
        xmin = _number(bnd, "xmin")
        ymin = _number(bnd, "ymin")
        xmax = _number(bnd, "xmax")
        ymax = _number(bnd, "ymax")
        if xmin > xmax or ymin > ymax:
            raise VocSchemaError(
                f"invalid bndbox ({xmin}, {ymin}, {xmax}, {ymax}): min exceeds max"
            )
        objects.append(GroundTruthObject(class_name=name, box=BBox(xmin, ymin, xmax, ymax)))
    return Annotation(
        image_filename=filename,
        image_width=width,
        image_height=height,
        objects=tuple(objects),
    )


def read_voc(path, lenient: bool = False) -> Annotation:
    """:func:`parse_voc` of the file at ``path``; a :class:`VocError` keeps
    its type and names the file.  ``lenient=True`` skips each object of
    unknown class with one stderr line naming the file and the class."""
    skipped = [] if lenient else None
    try:
        ann = parse_voc(Path(path).read_bytes(), skipped)
    except VocError as e:
        e.args = (f"{path}: {e}",)
        raise
    for name in skipped or ():
        # one write per line: preprocess reads its files from a thread pool
        sys.stderr.write(f"{path}: skipping object with unknown class {name!r}\n")
    return ann


def _num_text(v: float) -> str:
    # repr round-trips floats exactly; integers stay compact
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def write_voc(ann: Annotation) -> bytes:
    """Serialize an annotation; exact inverse of :func:`parse_voc`."""
    root = ET.Element("annotation")
    ET.SubElement(root, "filename").text = ann.image_filename
    size = ET.SubElement(root, "size")
    ET.SubElement(size, "width").text = _num_text(ann.image_width)
    ET.SubElement(size, "height").text = _num_text(ann.image_height)
    for obj in ann.objects:
        el = ET.SubElement(root, "object")
        ET.SubElement(el, "name").text = obj.class_name
        bnd = ET.SubElement(el, "bndbox")
        ET.SubElement(bnd, "xmin").text = _num_text(obj.box.x_min)
        ET.SubElement(bnd, "ymin").text = _num_text(obj.box.y_min)
        ET.SubElement(bnd, "xmax").text = _num_text(obj.box.x_max)
        ET.SubElement(bnd, "ymax").text = _num_text(obj.box.y_max)
    pretty = minidom.parseString(ET.tostring(root)).toprettyxml(indent="  ")
    return pretty.encode("utf-8")
