"""Mock storage host (LVM + GNBD/DRBD-like block-device server)."""

from __future__ import annotations

from typing import Any

from repro.common.errors import DeviceError
from repro.datamodel.node import Node
from repro.drivers.base import Device


class StorageHostDevice(Device):
    """A storage server holding VM disk images and exporting them over the
    network (cloneImage / exportImage in Table 1)."""

    entity_type = "storageHost"

    def __init__(self, name: str, capacity_gb: float = 4096.0, **kwargs: Any):
        super().__init__(name, **kwargs)
        self.capacity_gb = float(capacity_gb)
        #: image name -> {"size_gb": float, "exported": bool, "template": bool}
        self.images: dict[str, dict[str, Any]] = {}
        #: volume name -> {"size_gb": float, "exported": bool, "attached_to": str|None}
        self.volumes: dict[str, dict[str, Any]] = {}

    # -- setup helpers (not orchestration actions) ---------------------------

    def add_template(self, name: str, size_gb: float = 8.0) -> None:
        """Install a base image template on the storage host."""
        self.images[name] = {"size_gb": float(size_gb), "exported": False, "template": True}

    # -- device API ------------------------------------------------------------

    def clone_image(self, image_template: str, vm_image: str) -> None:
        """Clone a template into a new per-VM logical volume."""
        template = self.images.get(image_template)
        if template is None:
            raise DeviceError(
                f"template {image_template} not found on {self.name}",
                device=self.name,
                action="cloneImage",
            )
        if vm_image in self.images:
            raise DeviceError(
                f"image {vm_image} already exists on {self.name}",
                device=self.name,
                action="cloneImage",
            )
        if self.used_gb() + template["size_gb"] > self.capacity_gb:
            raise DeviceError(
                f"storage host {self.name} out of capacity cloning {vm_image}",
                device=self.name,
                action="cloneImage",
            )
        self.images[vm_image] = {
            "size_gb": template["size_gb"],
            "exported": False,
            "template": False,
        }

    def remove_image(self, vm_image: str) -> None:
        image = self._image(vm_image, "removeImage")
        if image["exported"]:
            raise DeviceError(
                f"image {vm_image} is still exported", device=self.name, action="removeImage"
            )
        del self.images[vm_image]

    def restore_image(self, vm_image: str, size_gb: float, template: bool) -> None:
        """Put back an (unexported) image that ``removeImage`` deleted: the
        undo of removeImage."""
        if vm_image in self.images:
            raise DeviceError(
                f"image {vm_image} already exists on {self.name}",
                device=self.name,
                action="restoreImage",
            )
        self.images[vm_image] = {
            "size_gb": float(size_gb),
            "exported": False,
            "template": bool(template),
        }

    def export_image(self, vm_image: str) -> None:
        """Export the image as a network block device."""
        self._image(vm_image, "exportImage")["exported"] = True

    def unexport_image(self, vm_image: str) -> None:
        self._image(vm_image, "unexportImage")["exported"] = False

    # -- block volumes (EBS-like logical volumes) --------------------------------

    def create_volume(self, volume_name: str, size_gb: float) -> None:
        """Allocate a new logical volume."""
        if volume_name in self.volumes or volume_name in self.images:
            raise DeviceError(
                f"volume {volume_name} already exists on {self.name}",
                device=self.name,
                action="createVolume",
            )
        if self.used_gb() + float(size_gb) > self.capacity_gb:
            raise DeviceError(
                f"storage host {self.name} out of capacity creating {volume_name}",
                device=self.name,
                action="createVolume",
            )
        self.volumes[volume_name] = {
            "size_gb": float(size_gb),
            "exported": False,
            "attached_to": None,
        }

    def delete_volume(self, volume_name: str) -> None:
        volume = self._volume(volume_name, "deleteVolume")
        if volume["attached_to"]:
            raise DeviceError(
                f"volume {volume_name} is attached to {volume['attached_to']}",
                device=self.name,
                action="deleteVolume",
            )
        if volume["exported"]:
            raise DeviceError(
                f"volume {volume_name} is still exported",
                device=self.name,
                action="deleteVolume",
            )
        del self.volumes[volume_name]

    def export_volume(self, volume_name: str) -> None:
        self._volume(volume_name, "exportVolume")["exported"] = True

    def unexport_volume(self, volume_name: str) -> None:
        volume = self._volume(volume_name, "unexportVolume")
        if volume["attached_to"]:
            raise DeviceError(
                f"volume {volume_name} is attached to {volume['attached_to']}; detach first",
                device=self.name,
                action="unexportVolume",
            )
        volume["exported"] = False

    def connect_volume(self, volume_name: str, vm_ref: str) -> None:
        volume = self._volume(volume_name, "connectVolume")
        if volume["attached_to"]:
            raise DeviceError(
                f"volume {volume_name} is already attached to {volume['attached_to']}",
                device=self.name,
                action="connectVolume",
            )
        volume["attached_to"] = vm_ref

    def disconnect_volume(self, volume_name: str, vm_ref: str) -> None:
        volume = self._volume(volume_name, "disconnectVolume")
        if volume["attached_to"] != vm_ref:
            raise DeviceError(
                f"volume {volume_name} is not attached to {vm_ref}",
                device=self.name,
                action="disconnectVolume",
            )
        volume["attached_to"] = None

    # -- introspection ----------------------------------------------------------

    def _image(self, name: str, action: str) -> dict[str, Any]:
        image = self.images.get(name)
        if image is None:
            raise DeviceError(
                f"no image {name} on storage host {self.name}", device=self.name, action=action
            )
        return image

    def _volume(self, name: str, action: str) -> dict[str, Any]:
        volume = self.volumes.get(name)
        if volume is None:
            raise DeviceError(
                f"no volume {name} on storage host {self.name}", device=self.name, action=action
            )
        return volume

    def used_gb(self) -> float:
        return sum(image["size_gb"] for image in self.images.values()) + sum(
            volume["size_gb"] for volume in self.volumes.values()
        )

    def has_image(self, name: str) -> bool:
        return name in self.images

    def has_volume(self, name: str) -> bool:
        return name in self.volumes

    # -- out-of-band volatility hooks -----------------------------------------

    def oob_remove_image(self, name: str) -> None:
        self.images.pop(name, None)

    def oob_remove_volume(self, name: str) -> None:
        self.volumes.pop(name, None)

    # -- reconciliation ---------------------------------------------------------

    def describe(self) -> Node:
        node = Node(
            self.name,
            self.entity_type,
            {"capacity_gb": self.capacity_gb},
        )
        for image_name in sorted(self.images):
            image = self.images[image_name]
            node.add_child(
                Node(
                    image_name,
                    "image",
                    {
                        "size_gb": image["size_gb"],
                        "exported": image["exported"],
                        "template": image["template"],
                    },
                )
            )
        for volume_name in sorted(self.volumes):
            volume = self.volumes[volume_name]
            node.add_child(
                Node(
                    volume_name,
                    "volume",
                    {
                        "size_gb": volume["size_gb"],
                        "exported": volume["exported"],
                        "attached_to": volume["attached_to"],
                    },
                )
            )
        return node
