#include "ulm/encoded.hpp"

namespace jamm::ulm {

const std::string& EncodedRecord::Ascii() const {
  ++accesses_;
  if (!ascii_) {
    ++encodes_;
    ascii_ = view_.ToAscii();
  }
  return *ascii_;
}

const std::string& EncodedRecord::Binary() const {
  ++accesses_;
  if (!has_binary_) {
    ++encodes_;
    binary_->clear();
    view_.EncodeBinary(*binary_);
    has_binary_ = true;
  }
  return *binary_;
}

const std::string& EncodedRecord::Xml() const {
  ++accesses_;
  if (!xml_) {
    ++encodes_;
    xml_ = view_.ToXml();
  }
  return *xml_;
}

}  // namespace jamm::ulm
