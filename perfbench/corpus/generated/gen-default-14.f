program fuzz
  input integer :: n = 4
  integer :: i0, i1, i2, i3, i4, i5, i6
  integer :: a0(0:9, n, n)
  integer :: a1(11, 0:n+1, 0:n+2)
  integer :: a2(0:n, n)
  do i0 = n, 2, -3
    do i1 = 1, i0
      a1(8, -1*i0+6, -1*i1+5) = 10
      a2(i0-1, i1) = 0
    end do
    if (i0 >= 5) then
      if (i0 > 6) then
        a2(i0, i0-1) = i0 * 2
        a0(i0+8, -1*i0+6, 3) = 19
        a2(-1*i0+6, i0) = a0(i0+1, 3, 1) + 2
        a2(i0-5, i0-1) = max(i0, 3)
      else
        a1(i0, i0-1, 6) = 16
      end if
      a0(2, i0-1, 2) = a2(i0+3, i0) + 0
      a1(i0, -1*i0+5, i0-2) = max(i0, 2)
      i2 = 3
      while (i2 < 9) do
        print i2
        a2(3, 1) = 2
        a2(i0-1, i0-1) = 16
        i2 = i2 + 1
      end while
    end if
    do i3 = n, 2, -2
      a0(i0-1, i3, 1) = -1
    end do
  end do
  if (n > 7) then
    do i4 = 2, 4, 2
      a0(-1*i4+7, -1*i4+6, 2) = 12
      a1(i4, i4-1, 4) = a1(7, i4, -1*i4+5) + 3
    end do
  else
    a2(0, 4) = a2(0, 1) + 2
    i5 = 1
    while (i5 < 1) do
      a0(1, i5, i5) = 0
      print i5
      a2(i5, i5) = a0(-1*i5+7, 4, i5+1) + 1
      i5 = i5 + 1
    end while
    a2(0, 2) = -1
  end if
  do i6 = 1, n
    print i6
    a2(i6-1, i6) = a1(i6+4, i6, i6+1) + 3
    a0(i6-1, i6, 3) = i6 + 5
  end do
  print 15
end program
