module hbverify/bench

go 1.22

require hbverify v0.0.0

replace hbverify => ../
